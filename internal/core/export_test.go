package core

import (
	"runtime/debug"
	"time"

	"repro/internal/ids"
	"repro/internal/sampler"
)

// Hooks for the external test package (core_test), which drives the detector
// through the public containers — internal/collections imports this package,
// so those tests cannot live inside it.

func runtimeOf(det Detector) *runtime {
	return &det.(interface{ base() *detectorBase }).base().rt
}

// InjectDelay parks a's thread in a trap, as an admitted call's should_delay
// would.
func InjectDelay(det Detector, a Access, d time.Duration) {
	rt := runtimeOf(det)
	rt.injectDelay(rt.threadStateFor(a.Thread), a, d, 0, false)
}

// ActivateThread makes t a thread the phase verdict (§3.4.3) has seen, for a
// test that then parks another thread alone and has t call into its delay: a
// delay is planned only in a concurrent phase, and a thread whose first TSVD
// point lands inside the delay is not one the verdict can wait for. The call
// is a read of an object and a location no test traps.
func ActivateThread(det Detector, t ids.ThreadID) {
	det.OnCall(Access{Thread: t, Obj: 1 << 50, Op: 1 << 50,
		Site: det.Sites().Register(1<<50, "", "", false), Kind: KindRead})
}

// Parked reports the number of traps currently parked.
func Parked(det Detector) int64 { return runtimeOf(det).parked.Load() }

// TripCap exhausts the sampler's interval budget.
func TripCap(det Detector) bool {
	s := runtimeOf(det).samp
	s.Observe(sampler.LayerAnalysis, time.Hour)
	return s.Snapshot().Capped
}

// RaceEnabled reports whether the test binary was built with -race.
func RaceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
