// Package collections provides the instrumented thread-unsafe containers —
// the Go analogue of the 14 .NET classes TSVD checks (§4). Every public
// method funnels through the detector's OnCall with the (thread, object,
// call-site) triple before executing the underlying rawcol operation, which
// is exactly the proxy-call interposition the TSVD instrumenter performs by
// binary rewriting (Figure 7).
//
// A nil detector yields an uninstrumented container with identical
// behaviour; the harness uses that as the overhead baseline.
package collections

import (
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/sites"
)

// Detector is the runtime interface containers report to; see core.Detector.
type Detector = core.Detector

// instrumented is the common prologue state every container embeds. The
// detector's site registry is cached at construction so the prologue interns
// its site directly. After the first call per call site the whole prologue is
// three lock-free steps — the goroutine id, the call site's OpID and its
// SiteID (see sites.Registry.ForCall for what each costs) — with nothing
// allocated and no strings materialized on the access itself. A sampled
// detector's admission gate is cached too: it is asked with the goroutine id
// alone, so a call it rejects buys neither of the other two.
type instrumented struct {
	det   core.Detector
	reg   *sites.Registry
	gate  *core.Gate
	id    ids.ObjectID
	class string
}

func newInstrumented(det core.Detector, class string) instrumented {
	b := instrumented{det: det, id: ids.NewObjectID(), class: class}
	if det != nil {
		b.reg = det.Sites()
		b.gate = core.GateOf(det)
	}
	return b
}

// onCall reports the imminent API call to the detector. It may block the
// calling goroutine inside an injected delay. The op id is the call site of
// the public method invoking onCall, i.e. the user's code.
func (b *instrumented) onCall(method string, kind core.Kind) {
	if b.det == nil {
		return
	}
	thread := ids.CurrentThreadID()
	if b.gate != nil && !b.gate.Admit(thread) {
		return
	}
	op := ids.CallerOp(1)
	b.det.OnCall(core.Access{
		Thread: thread,
		Obj:    b.id,
		Op:     op,
		Site:   b.reg.ForCall(op, b.class, method, kind == core.KindWrite),
		Kind:   kind,
	})
}

// ObjectID exposes the container's identity token (used by tests and the
// harness to correlate reports).
func (b *instrumented) ObjectID() ids.ObjectID { return b.id }

// APIKind mirrors core.Kind for the registry.
type APIKind = core.Kind

// API registry constants.
const (
	Read  = core.KindRead
	Write = core.KindWrite
)

// APIList describes one class's thread-safety contract: method name → kind.
type APIList map[string]APIKind

// Registry returns the complete thread-unsafe API list the instrumenter and
// documentation ship with — the analogue of the paper's manually classified
// 59 write-APIs and 64 read-APIs over 14 classes.
func Registry() map[string]APIList {
	return map[string]APIList{
		"Dictionary": {
			"ContainsKey": Read, "TryGetValue": Read, "Get": Read,
			"Count": Read, "Keys": Read, "Values": Read, "ForEach": Read,
			"Add": Write, "Set": Write, "Remove": Write, "Clear": Write,
			"GetOrAdd": Write,
		},
		"List": {
			"Get": Read, "Count": Read, "Contains": Read, "IndexOf": Read,
			"IndexFunc": Read, "ForEach": Read, "ToSlice": Read,
			"Add": Write, "Insert": Write, "Set": Write, "RemoveAt": Write,
			"Remove": Write, "RemoveFunc": Write, "Clear": Write, "Sort": Write,
		},
		"HashSet": {
			"Contains": Read, "Count": Read, "ToSlice": Read,
			"Add": Write, "Remove": Write, "Clear": Write, "UnionWith": Write,
		},
		"Queue": {
			"Peek": Read, "Count": Read, "ToSlice": Read,
			"Enqueue": Write, "Dequeue": Write, "Clear": Write,
		},
		"Stack": {
			"Peek": Read, "Count": Read, "ToSlice": Read,
			"Push": Write, "Pop": Write, "Clear": Write,
		},
		"SortedDictionary": {
			"ContainsKey": Read, "TryGetValue": Read, "Count": Read,
			"Keys": Read, "Min": Read,
			"Add": Write, "Set": Write, "Remove": Write, "Clear": Write,
		},
		"LinkedList": {
			"First": Read, "Last": Read, "Count": Read, "ToSlice": Read,
			"Contains": Read,
			"AddFirst": Write, "AddLast": Write, "RemoveFirst": Write,
			"RemoveLast": Write, "Remove": Write, "RemoveFunc": Write,
			"Clear": Write,
		},
		"StringBuilder": {
			"String": Read, "Len": Read,
			"Append": Write, "AppendLine": Write, "Reset": Write,
		},
		"Counter": {
			"Value":     Read,
			"Increment": Write, "Decrement": Write, "AddDelta": Write,
			"SetValue": Write,
		},
		"MultiMap": {
			"Get": Read, "ContainsKey": Read, "Count": Read,
			"Add": Write, "RemoveKey": Write, "Clear": Write,
		},
		"PriorityQueue": {
			"Peek": Read, "Count": Read, "ToSlice": Read,
			"Enqueue": Write, "Dequeue": Write, "Clear": Write,
		},
		"SortedSet": {
			"Contains": Read, "Count": Read, "Min": Read, "Max": Read,
			"ToSlice": Read,
			"Add":     Write, "Remove": Write, "Clear": Write,
		},
		"BitArray": {
			"Get": Read, "Size": Read, "OnesCount": Read,
			"Set": Write, "Flip": Write, "SetAll": Write,
		},
	}
}
