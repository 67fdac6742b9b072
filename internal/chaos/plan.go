package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/config"
)

// actionKind enumerates the fleet operations a plan interleaves.
type actionKind int

const (
	// actRunShard: one CI shard runs a workload suite under a detector
	// variant and sampling mode, seeding from and publishing to the daemon
	// through a Fallback(HTTPStore, FileStore), optionally through an
	// injected network fault.
	actRunShard actionKind = iota
	// actKillDaemon: the daemon process dies; its in-memory set is gone,
	// only its snapshot file and log survive.
	actKillDaemon
	// actRestartDaemon: the daemon restarts (killing it first when up),
	// restoring its set and generation from its snapshot file and log under
	// a fresh boot epoch.
	actRestartDaemon
	// actCorruptFile: a shard's local trap file is overwritten with garbage
	// bytes — a detectable corruption the next run must classify as
	// trapfile.ErrCorrupt (exit code 3) before the shard heals it.
	actCorruptFile
	// actTruncateFile: a shard's local trap file is replaced by a valid
	// empty trap file — a silent external pair loss the fleet must absorb.
	actTruncateFile
	// actConcurrentPublish: several goroutines publish disjoint synthetic
	// pair sets straight at the daemon at once.
	actConcurrentPublish
	// actSupersedeInstall: exercises the public Session API — Install,
	// concurrent container traffic, supersede, Close — and its documented
	// lifecycle guarantees.
	actSupersedeInstall
	// actTornLogTail: a restart whose kill landed mid-append. While the
	// daemon is down its log gains the front of a record that spells a pair
	// no publish ever carried (variant 0) or plain garbage under an oversized
	// length (variant 1); the daemon must boot, keep everything it
	// acknowledged and gain no phantom pair.
	actTornLogTail
	// actCrashMidCompaction: a restart whose kill landed inside a
	// compaction — before the rename (variant 0: temp-file debris beside the
	// old snapshot and the full log) or after it (variant 1: the new
	// snapshot beside the log it never emptied).
	actCrashMidCompaction
	// actConverge: restart the daemon if it is down, heal corrupt files,
	// push every shard file to the daemon and pull its set back — after which
	// the daemon and every shard file must hold the identical set.
	actConverge
)

// action is one fully-parameterized plan step. Every random choice is drawn
// at plan time, so executing (or re-slicing) a plan involves no randomness.
type action struct {
	kind    actionKind
	shard   int
	algo    config.Algorithm
	mode    config.Mode
	sampleP float64
	suite   int64 // workload suite seed
	modules int
	detSeed int64 // detector Config.Seed
	runSeed int64 // harness schedule seed
	fault   faultSpec
	base    int // disjoint synthetic-pair namespace for concurrent publishes
	variant int // which of a disk fault's two states is staged
}

func (a action) describe() string {
	switch a.kind {
	case actRunShard:
		mode := a.mode.String()
		if a.mode == config.ModeSampled {
			mode = fmt.Sprintf("sampled(p=%.1f)", a.sampleP)
		}
		return fmt.Sprintf("run shard=%d algo=%s mode=%s suite=%d modules=%d det=%d sched=%d fault=%s",
			a.shard, a.algo, mode, a.suite, a.modules, a.detSeed, a.runSeed, a.fault)
	case actKillDaemon:
		return "kill-daemon"
	case actRestartDaemon:
		return "restart-daemon (restore from snapshot)"
	case actTornLogTail:
		return fmt.Sprintf("torn-log-tail tail=%s (kill, damage the log, restart)",
			[...]string{"partial-record", "garbage"}[a.variant])
	case actCrashMidCompaction:
		return fmt.Sprintf("crash-mid-compaction killed=%s (kill, stage the state, restart)",
			[...]string{"before-rename", "before-log-reset"}[a.variant])
	case actCorruptFile:
		return fmt.Sprintf("corrupt-file shard=%d", a.shard)
	case actTruncateFile:
		return fmt.Sprintf("truncate-file shard=%d", a.shard)
	case actConcurrentPublish:
		return fmt.Sprintf("concurrent-publish base=%d writers=3", a.base)
	case actSupersedeInstall:
		return fmt.Sprintf("supersede-install det=%d", a.detSeed)
	case actConverge:
		return "converge (restart, heal, push locals, pull back)"
	default:
		return fmt.Sprintf("unknown-action(%d)", a.kind)
	}
}

func describePlan(plan []action) []string {
	out := make([]string, len(plan))
	for i, a := range plan {
		out[i] = a.describe()
	}
	return out
}

// weightedKinds is the action mix. Shard runs dominate — they are the
// workload everything else disrupts; the disruptions stay frequent enough
// that a default-size plan exercises each several times.
var weightedKinds = []struct {
	kind   actionKind
	weight int
}{
	{actRunShard, 50},
	{actKillDaemon, 5},
	{actRestartDaemon, 9},
	{actTornLogTail, 5},
	{actCrashMidCompaction, 5},
	{actCorruptFile, 5},
	{actTruncateFile, 15},
	{actConcurrentPublish, 8},
	{actSupersedeInstall, 5},
	{actConverge, 5},
}

// shardAlgos is the run-action algorithm mix: the trap-set variants dominate
// (they exercise the publish path with real pairs), but the random baselines
// stay in rotation — they publish empty sets, the degenerate case of the
// file contract.
var shardAlgos = []struct {
	algo   config.Algorithm
	weight int
}{
	{config.AlgoTSVD, 5},
	{config.AlgoTSVDHB, 3},
	{config.AlgoDynamicRandom, 1},
	{config.AlgoStaticRandom, 1},
}

// shardModes is the run-action sampling-mode mix; every Config.Mode stays in
// rotation.
var shardModes = []struct {
	mode   config.Mode
	weight int
}{
	{config.ModeFull, 3},
	{config.ModeSampled, 2},
	{config.ModeObserveOnly, 1},
}

// shardFaults is the run-action network-fault mix: most runs see a clean
// network so the fleet makes progress; the rest exercise every HTTPStore
// failure path.
var shardFaults = []struct {
	fault  faultSpec
	weight int
}{
	{faultSpec{}, 12},
	{faultSpec{kind: faultSlow}, 2},
	{faultSpec{kind: faultFlaky, n: 1}, 2},
	{faultSpec{kind: fault5xx, n: 1}, 2},
	{faultSpec{kind: faultKillMid, n: 1}, 1},
}

func pickWeighted(rng *rand.Rand, total int, weightAt func(int) int) int {
	roll := rng.Intn(total)
	for i := 0; ; i++ {
		roll -= weightAt(i)
		if roll < 0 {
			return i
		}
	}
}

// newPlan draws cfg.Actions weighted actions plus a closing converge from a
// seed-derived RNG. The plan is the single source of randomness for a run.
func newPlan(cfg Config) []action {
	rng := rand.New(rand.NewSource(cfg.Seed))
	kindTotal, algoTotal, modeTotal, faultTotal := 0, 0, 0, 0
	for _, k := range weightedKinds {
		kindTotal += k.weight
	}
	for _, a := range shardAlgos {
		algoTotal += a.weight
	}
	for _, m := range shardModes {
		modeTotal += m.weight
	}
	for _, f := range shardFaults {
		faultTotal += f.weight
	}

	plan := make([]action, 0, cfg.Actions+1)
	base := 0
	for len(plan) < cfg.Actions {
		var a action
		a.kind = weightedKinds[pickWeighted(rng, kindTotal, func(i int) int { return weightedKinds[i].weight })].kind
		switch a.kind {
		case actRunShard:
			a.shard = rng.Intn(cfg.Shards)
			a.algo = shardAlgos[pickWeighted(rng, algoTotal, func(i int) int { return shardAlgos[i].weight })].algo
			a.mode = shardModes[pickWeighted(rng, modeTotal, func(i int) int { return shardModes[i].weight })].mode
			if a.mode == config.ModeSampled {
				a.sampleP = []float64{0.3, 0.6, 0.9}[rng.Intn(3)]
			}
			a.suite = int64(101 + rng.Intn(3))
			a.modules = 2 + rng.Intn(3)
			a.detSeed = int64(rng.Intn(1 << 20))
			a.runSeed = int64(rng.Intn(1 << 20))
			a.fault = shardFaults[pickWeighted(rng, faultTotal, func(i int) int { return shardFaults[i].weight })].fault
		case actTornLogTail, actCrashMidCompaction:
			a.variant = rng.Intn(2)
		case actCorruptFile, actTruncateFile:
			a.shard = rng.Intn(cfg.Shards)
		case actConcurrentPublish:
			a.base = base
			base += 3 // three writers, each with its own disjoint namespace
		case actSupersedeInstall:
			a.detSeed = int64(rng.Intn(1 << 20))
		}
		plan = append(plan, a)
	}
	// Every plan ends with one converge: the closing state must be a fully
	// converged fleet, whatever the chaos before it.
	return append(plan, action{kind: actConverge})
}
