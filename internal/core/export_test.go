package core

import (
	"runtime/debug"
	"time"
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
	rt.injectDelay(rt.threadStateFor(a.Thread), a, d)
}

// Parked reports the number of traps currently parked.
func Parked(det Detector) int64 { return runtimeOf(det).parked.Load() }

// TripCap exhausts the sampler's interval budget.
func TripCap(det Detector) bool {
	s := runtimeOf(det).samp
	s.ObserveCost(time.Hour)
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
