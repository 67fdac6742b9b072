package main

// The call sites of the call workloads, written out one per line: the
// detector identifies a site by the file:line of the call into the
// container, so a loop over a table of closures would collapse them all
// into one site. callSites[i] describes case i of do.

type siteDef struct {
	class int
	write bool
	// mix selects the workloads that draw this site: hot_calls and
	// sampled_calls use mixHot, shared_reads uses mixShared.
	mix int
}

const (
	mixHot = iota
	mixShared
	// mixQueueWrite marks Enqueue/Dequeue, which genStream places itself
	// so that they alternate.
	mixQueueWrite
)

const (
	siteQueueEnqueue = 29
	siteQueueDequeue = 30
	siteQueuePeek    = 31
)

var callSites = []siteDef{
	// hot_calls / sampled_calls: 60 % writes, 40 % reads.
	0:  {classDict, true, mixHot},
	1:  {classDict, true, mixHot},
	2:  {classDict, true, mixHot},
	3:  {classDict, true, mixHot},
	4:  {classDict, true, mixHot},
	5:  {classDict, true, mixHot},
	6:  {classDict, false, mixHot},
	7:  {classDict, false, mixHot},
	8:  {classDict, false, mixHot},
	9:  {classDict, false, mixHot},
	10: {classDict, false, mixHot},
	11: {classList, true, mixHot},
	12: {classList, true, mixHot},
	13: {classList, true, mixHot},
	14: {classList, true, mixHot},
	15: {classList, false, mixHot},
	16: {classList, false, mixHot},
	17: {classList, false, mixHot},
	18: {classList, false, mixHot},
	19: {classSet, true, mixHot},
	20: {classSet, true, mixHot},
	21: {classSet, true, mixHot},
	22: {classSet, false, mixHot},
	23: {classSet, false, mixHot},
	24: {classCounter, true, mixHot},
	25: {classCounter, true, mixHot},
	26: {classCounter, true, mixHot},
	27: {classCounter, true, mixHot},
	28: {classCounter, false, mixHot},
	29: {classQueue, true, mixQueueWrite},
	30: {classQueue, true, mixQueueWrite},
	31: {classQueue, false, mixHot},
	32: {classQueue, false, mixHot},
	// shared_reads: read APIs only.
	33: {classDict, false, mixShared},
	34: {classDict, false, mixShared},
	35: {classDict, false, mixShared},
	36: {classDict, false, mixShared},
	37: {classDict, false, mixShared},
	38: {classDict, false, mixShared},
	39: {classDict, false, mixShared},
	40: {classDict, false, mixShared},
	41: {classDict, false, mixShared},
	42: {classDict, false, mixShared},
	43: {classDict, false, mixShared},
	44: {classDict, false, mixShared},
	45: {classDict, false, mixShared},
	46: {classDict, false, mixShared},
	47: {classList, false, mixShared},
	48: {classList, false, mixShared},
	49: {classList, false, mixShared},
	50: {classList, false, mixShared},
	51: {classList, false, mixShared},
	52: {classList, false, mixShared},
	53: {classList, false, mixShared},
	54: {classList, false, mixShared},
	55: {classSet, false, mixShared},
	56: {classSet, false, mixShared},
	57: {classSet, false, mixShared},
	58: {classSet, false, mixShared},
	59: {classCounter, false, mixShared},
	60: {classCounter, false, mixShared},
	61: {classCounter, false, mixShared},
	62: {classQueue, false, mixShared},
	63: {classQueue, false, mixShared},
	64: {classQueue, false, mixShared},
}

// sitesFor lists the sites a workload may draw for a class and kind.
func sitesFor(kind callKind, class int, write bool) []uint8 {
	mix := mixHot
	if kind == sharedReads {
		mix = mixShared
	}
	var out []uint8
	for i, s := range callSites {
		if s.mix == mix && s.class == class && s.write == write {
			out = append(out, uint8(i))
		}
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// do issues one generated call and returns what it returned, as an int.
func (cs *containerSet) do(o op) int {
	k := int(o.key)
	switch o.site {
	case 0:
		cs.d[o.cont].Set(k, k+1)
	case 1:
		cs.d[o.cont].Set(k, k+2)
	case 2:
		cs.d[o.cont].Set(k, k+3)
	case 3:
		cs.d[o.cont].Set(k, k+4)
	case 4:
		v, _ := cs.d[o.cont].GetOrAdd(k, k+5)
		return v
	case 5:
		return b2i(cs.d[o.cont].Remove(k))
	case 6:
		return b2i(cs.d[o.cont].ContainsKey(k))
	case 7:
		return b2i(cs.d[o.cont].ContainsKey(k ^ 1))
	case 8:
		v, _ := cs.d[o.cont].TryGetValue(k)
		return v
	case 9:
		v, _ := cs.d[o.cont].TryGetValue(k ^ 1)
		return v
	case 10:
		return cs.d[o.cont].Count()
	case 11:
		cs.l[o.cont].Set(k, k+1)
	case 12:
		cs.l[o.cont].Set(k, k+2)
	case 13:
		cs.l[o.cont].Set(k, k+3)
	case 14:
		cs.l[o.cont].Set(k, k+4)
	case 15:
		return cs.l[o.cont].Get(k)
	case 16:
		return cs.l[o.cont].Get(k ^ 1)
	case 17:
		return cs.l[o.cont].Get(k ^ 2)
	case 18:
		return cs.l[o.cont].Count()
	case 19:
		return b2i(cs.h.Add(k))
	case 20:
		return b2i(cs.h.Add(k ^ 1))
	case 21:
		return b2i(cs.h.Remove(k))
	case 22:
		return b2i(cs.h.Contains(k))
	case 23:
		return cs.h.Count()
	case 24:
		cs.c.Increment()
	case 25:
		cs.c.Decrement()
	case 26:
		cs.c.AddDelta(int64(k))
	case 27:
		cs.c.SetValue(int64(k))
	case 28:
		return int(cs.c.Value())
	case siteQueueEnqueue:
		cs.q.Enqueue(k)
	case siteQueueDequeue:
		return cs.q.Dequeue()
	case siteQueuePeek:
		v, _ := cs.q.Peek()
		return v
	case 32:
		return cs.q.Count()

	case 33:
		return b2i(cs.d[o.cont].ContainsKey(k))
	case 34:
		return b2i(cs.d[o.cont].ContainsKey(k ^ 1))
	case 35:
		return b2i(cs.d[o.cont].ContainsKey(k ^ 2))
	case 36:
		return b2i(cs.d[o.cont].ContainsKey(k ^ 3))
	case 37:
		v, _ := cs.d[o.cont].TryGetValue(k)
		return v
	case 38:
		v, _ := cs.d[o.cont].TryGetValue(k ^ 1)
		return v
	case 39:
		v, _ := cs.d[o.cont].TryGetValue(k ^ 2)
		return v
	case 40:
		v, _ := cs.d[o.cont].TryGetValue(k ^ 3)
		return v
	case 41:
		return cs.d[o.cont].Get(k)
	case 42:
		return cs.d[o.cont].Get(k ^ 1)
	case 43:
		return cs.d[o.cont].Get(k ^ 2)
	case 44:
		return cs.d[o.cont].Get(k ^ 3)
	case 45:
		return cs.d[o.cont].Count()
	case 46:
		return cs.d[o.cont].Count() + 1
	case 47:
		return cs.l[o.cont].Get(k)
	case 48:
		return cs.l[o.cont].Get(k ^ 1)
	case 49:
		return cs.l[o.cont].Get(k ^ 2)
	case 50:
		return cs.l[o.cont].Get(k ^ 3)
	case 51:
		return cs.l[o.cont].Get(k ^ 4)
	case 52:
		return cs.l[o.cont].Get(k ^ 5)
	case 53:
		return cs.l[o.cont].Count()
	case 54:
		return cs.l[o.cont].Count() + 1
	case 55:
		return b2i(cs.h.Contains(k))
	case 56:
		return b2i(cs.h.Contains(k ^ 1))
	case 57:
		return b2i(cs.h.Contains(k ^ 2))
	case 58:
		return cs.h.Count()
	case 59:
		return int(cs.c.Value())
	case 60:
		return int(cs.c.Value()) + 1
	case 61:
		return int(cs.c.Value()) + 2
	case 62:
		v, _ := cs.q.Peek()
		return v
	case 63:
		v, _ := cs.q.Peek()
		return v + 1
	case 64:
		return cs.q.Count()
	default:
		panic("benchmark: op names no call site")
	}
	return 0
}
