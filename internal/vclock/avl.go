// Package vclock implements vector clocks for the TSVDHB variant (§3.5).
//
// Tree is the paper's representation: an immutable AVL tree-map, so a
// message-send (fork, lock release, join hand-off) copies the clock in O(1)
// by sharing the reference, while increments cost O(log n) path copying.
// The package's tests and benchmarks compare it against Mutable, the
// traditional hash-table representation, which lives in the tests. Element-wise max exploits reference equality of
// shared subtrees: joining a task that passed through no TSVD point since
// fork compares equal by pointer and costs O(1), the common case the paper
// calls out.
package vclock

// Tree is an immutable vector clock: a persistent AVL tree from thread id to
// logical time. The zero value is the empty clock. All operations return new
// trees; existing trees are never modified, so references can be shared
// freely across threads without synchronization.
type Tree struct {
	root *node
}

type node struct {
	key         int64
	val         uint64
	left, right *node
	height      int8
	size        int32
}

func height(n *node) int8 {
	if n == nil {
		return 0
	}
	return n.height
}

func size(n *node) int32 {
	if n == nil {
		return 0
	}
	return n.size
}

func mk(key int64, val uint64, left, right *node) *node {
	h := height(left)
	if hr := height(right); hr > h {
		h = hr
	}
	return &node{
		key: key, val: val, left: left, right: right,
		height: h + 1,
		size:   size(left) + size(right) + 1,
	}
}

// balance rebuilds a subtree that may be off by one insertion.
func balance(key int64, val uint64, left, right *node) *node {
	switch d := height(left) - height(right); {
	case d > 1:
		if height(left.left) >= height(left.right) { // LL
			return mk(left.key, left.val, left.left, mk(key, val, left.right, right))
		}
		lr := left.right // LR
		return mk(lr.key, lr.val,
			mk(left.key, left.val, left.left, lr.left),
			mk(key, val, lr.right, right))
	case d < -1:
		if height(right.right) >= height(right.left) { // RR
			return mk(right.key, right.val, mk(key, val, left, right.left), right.right)
		}
		rl := right.left // RL
		return mk(rl.key, rl.val,
			mk(key, val, left, rl.left),
			mk(right.key, right.val, rl.right, right.right))
	default:
		return mk(key, val, left, right)
	}
}

func insert(n *node, key int64, val uint64) *node {
	if n == nil {
		return mk(key, val, nil, nil)
	}
	switch {
	case key < n.key:
		return balance(n.key, n.val, insert(n.left, key, val), n.right)
	case key > n.key:
		return balance(n.key, n.val, n.left, insert(n.right, key, val))
	default:
		if n.val == val {
			return n
		}
		return mk(n.key, val, n.left, n.right)
	}
}

// Get returns the component for thread id t (0 when absent).
func (c Tree) Get(t int64) uint64 {
	n := c.root
	for n != nil {
		switch {
		case t < n.key:
			n = n.left
		case t > n.key:
			n = n.right
		default:
			return n.val
		}
	}
	return 0
}

// Set returns a clock with component t set to v. O(log n).
func (c Tree) Set(t int64, v uint64) Tree {
	return Tree{root: insert(c.root, t, v)}
}

// Tick returns a clock with component t incremented. This is the only
// operation TSVDHB performs at TSVD points, keeping the O(log n) cost off
// the frequent synchronization events (§3.5, first optimization).
func (c Tree) Tick(t int64) Tree {
	return c.Set(t, c.Get(t)+1)
}

// Len returns the number of components.
func (c Tree) Len() int { return int(size(c.root)) }

// Join returns the element-wise maximum of a and b. Shared subtrees (and in
// the common fork/join-without-TSVD-points case, the whole clock) compare
// equal by reference and are returned without traversal — the O(1) fast
// path of §3.5's third optimization.
func Join(a, b Tree) Tree {
	return Tree{root: merge(a.root, b.root)}
}

func merge(a, b *node) *node {
	if a == b || b == nil {
		return a
	}
	if a == nil {
		return b
	}
	// Split b around a's root key, then max a.val into place and recurse.
	bl, bv, br := split(b, a.key)
	v := a.val
	if bv > v {
		v = bv
	}
	left := merge(a.left, bl)
	right := merge(a.right, br)
	return join(left, a.key, v, right)
}

// split partitions n into keys < k, the value at k (0 if absent), keys > k.
func split(n *node, k int64) (*node, uint64, *node) {
	if n == nil {
		return nil, 0, nil
	}
	switch {
	case k < n.key:
		l, v, r := split(n.left, k)
		return l, v, join(r, n.key, n.val, n.right)
	case k > n.key:
		l, v, r := split(n.right, k)
		return join(n.left, n.key, n.val, l), v, r
	default:
		return n.left, n.val, n.right
	}
}

// join builds a balanced tree from left < key < right.
func join(left *node, key int64, val uint64, right *node) *node {
	switch {
	case height(left) > height(right)+1:
		return balance(left.key, left.val, left.left, join(left.right, key, val, right))
	case height(right) > height(left)+1:
		return balance(right.key, right.val, join(left, key, val, right.left), right.right)
	default:
		return mk(key, val, left, right)
	}
}

// LessOrEqual reports whether every component of a is ≤ the corresponding
// component of b, i.e. a happened-before-or-equals b. Reference-equal
// subtrees short-circuit to true.
func LessOrEqual(a, b Tree) bool {
	ok := true
	walk(a.root, func(k int64, v uint64) bool {
		if v > b.Get(k) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// HappenedBefore reports a < b: a ≤ b and a ≠ b.
func HappenedBefore(a, b Tree) bool {
	return LessOrEqual(a, b) && !LessOrEqual(b, a)
}

// Concurrent reports that neither clock ordered before the other.
func Concurrent(a, b Tree) bool {
	return !LessOrEqual(a, b) && !LessOrEqual(b, a)
}

func walk(n *node, fn func(int64, uint64) bool) bool {
	if n == nil {
		return true
	}
	return walk(n.left, fn) && fn(n.key, n.val) && walk(n.right, fn)
}

// Each visits the components in key order.
func (c Tree) Each(fn func(t int64, v uint64) bool) {
	walk(c.root, fn)
}

// SameRef reports whether a and b share the identical root — the O(1)
// equality fast path used on join messages.
func SameRef(a, b Tree) bool { return a.root == b.root }
