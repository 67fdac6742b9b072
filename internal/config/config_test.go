package config

import (
	"testing"
	"time"
)

func TestDefaultsMatchPaper(t *testing.T) {
	c := Defaults(AlgoTSVD)
	// §5.4: N_nm=5, T_nm=100ms, δ_hb=0.5, k_hb=5, buffer=16, delay=100ms.
	if c.ObjHistory != 5 {
		t.Errorf("ObjHistory = %d, want 5", c.ObjHistory)
	}
	if c.NearMissWindow != 100*time.Millisecond {
		t.Errorf("NearMissWindow = %v, want 100ms", c.NearMissWindow)
	}
	if c.HBBlockThreshold != 0.5 {
		t.Errorf("HBBlockThreshold = %v, want 0.5", c.HBBlockThreshold)
	}
	if c.HBInferenceWindow != 5 {
		t.Errorf("HBInferenceWindow = %d, want 5", c.HBInferenceWindow)
	}
	if c.PhaseBufferSize != 16 {
		t.Errorf("PhaseBufferSize = %d, want 16", c.PhaseBufferSize)
	}
	if c.DelayTime != 100*time.Millisecond {
		t.Errorf("DelayTime = %v, want 100ms", c.DelayTime)
	}
	if c.RandomDelayProbability != 0.05 {
		t.Errorf("RandomDelayProbability = %v, want 0.05", c.RandomDelayProbability)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestValidateRejectsBadValues(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"ObjHistory", func(c *Config) { c.ObjHistory = 0 }},
		{"NearMissWindow", func(c *Config) { c.NearMissWindow = 0 }},
		{"HBBlockThreshold", func(c *Config) { c.HBBlockThreshold = -1 }},
		{"HBInferenceWindow", func(c *Config) { c.HBInferenceWindow = -1 }},
		{"PhaseBufferSize", func(c *Config) { c.PhaseBufferSize = 1 }},
		{"DelayTime", func(c *Config) { c.DelayTime = 0 }},
		{"DecayFactor", func(c *Config) { c.DecayFactor = 1.0 }},
		{"DecayFactorNeg", func(c *Config) { c.DecayFactor = -0.1 }},
		{"PruneProbability", func(c *Config) { c.PruneProbability = 1.0 }},
		{"RandomDelayProbability", func(c *Config) { c.RandomDelayProbability = 1.5 }},
		{"TimeScale", func(c *Config) { c.TimeScale = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Defaults(AlgoTSVD)
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatalf("invalid %s accepted", tc.name)
			}
		})
	}
}

func TestPhaseBufferSizeAllowedWhenPhaseDisabled(t *testing.T) {
	c := Defaults(AlgoTSVD)
	c.PhaseBufferSize = 0
	c.DisablePhaseDetection = true
	if err := c.Validate(); err != nil {
		t.Fatalf("phase-disabled config rejected: %v", err)
	}
}

func TestTimeScaling(t *testing.T) {
	c := Defaults(AlgoTSVD).Scaled(0.01)
	if got := c.EffectiveDelay(); got != time.Millisecond {
		t.Errorf("EffectiveDelay = %v, want 1ms", got)
	}
	if got := c.EffectiveNearMissWindow(); got != time.Millisecond {
		t.Errorf("EffectiveNearMissWindow = %v, want 1ms", got)
	}
	if got := c.EffectiveMaxDelayPerThread(); got != 50*time.Millisecond {
		t.Errorf("EffectiveMaxDelayPerThread = %v, want 50ms", got)
	}
	// Scale 1.0 passes through.
	c1 := Defaults(AlgoTSVD)
	if c1.EffectiveDelay() != c1.DelayTime {
		t.Error("TimeScale=1 changed DelayTime")
	}
	// Tiny scale never rounds a positive duration to zero.
	ctiny := Defaults(AlgoTSVD).Scaled(1e-15)
	if ctiny.EffectiveDelay() <= 0 {
		t.Error("tiny scale produced non-positive delay")
	}
}

func TestAlgorithmString(t *testing.T) {
	want := map[Algorithm]string{
		AlgoNop:           "Nop",
		AlgoTSVD:          "TSVD",
		AlgoTSVDHB:        "TSVDHB",
		AlgoDynamicRandom: "DynamicRandom",
		AlgoStaticRandom:  "DataCollider",
		Algorithm(99):     "unknown",
	}
	for algo, s := range want {
		if algo.String() != s {
			t.Errorf("%d.String() = %q, want %q", algo, algo.String(), s)
		}
	}
}
