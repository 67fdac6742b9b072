package vclock

// Mutable is the traditional hash-table vector clock: O(1) in-place
// increment but O(n) copy on every message send. It exists as the baseline
// the paper compares the immutable representation against (§3.5, second
// optimization): the model this package's tests check Tree against and the
// baseline of its benchmarks.
type Mutable map[int64]uint64

// NewMutable returns an empty mutable clock.
func NewMutable() Mutable { return Mutable{} }

// Get returns the component for t.
func (c Mutable) Get(t int64) uint64 { return c[t] }

// Set updates the component for t in place.
func (c Mutable) Set(t int64, v uint64) { c[t] = v }

// Tick increments the component for t in place.
func (c Mutable) Tick(t int64) { c[t]++ }

// Copy returns an independent copy — the O(n) cost paid on every
// message-send with mutable clocks.
func (c Mutable) Copy() Mutable {
	out := make(Mutable, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// JoinInto folds other into c element-wise (receive event).
func (c Mutable) JoinInto(other Mutable) {
	for k, v := range other {
		if v > c[k] {
			c[k] = v
		}
	}
}

// LessOrEqualM reports a ≤ b for mutable clocks.
func LessOrEqualM(a, b Mutable) bool {
	for k, v := range a {
		if v > b[k] {
			return false
		}
	}
	return true
}

// ToTree converts a mutable clock to the immutable representation.
func (c Mutable) ToTree() Tree {
	var t Tree
	for k, v := range c {
		t = t.Set(k, v)
	}
	return t
}
