package soc

import "testing"

func TestModelsMatchPaperConfiguration(t *testing.T) {
	for _, cores := range []int{1, 2, 4} {
		a9 := CortexA9(cores)
		a72 := CortexA72(cores)
		if a9.ISA.Feat().Name != "armv7" || a72.ISA.Feat().Name != "armv8" {
			t.Fatal("ISA pairing wrong")
		}
		// Paper §3.1 cache geometry.
		if a9.Cache.L1I.SizeBytes != 32<<10 || a9.Cache.L1D.Ways != 4 || a9.Cache.L2.SizeBytes != 512<<10 {
			t.Errorf("A9 cache geometry: %+v", a9.Cache)
		}
		if a72.Cache.L2.Ways != 8 {
			t.Errorf("A72 L2 ways: %d", a72.Cache.L2.Ways)
		}
		if a9.Cores != cores || a72.Cores != cores {
			t.Error("core count not applied")
		}
		// The A72 pays a deeper mispredict penalty than the A9.
		if a72.Timing.Mispredict <= a9.Timing.Mispredict {
			t.Error("pipeline depth ordering violated")
		}
	}
}

func TestModelNames(t *testing.T) {
	for isaName, want := range map[string]string{"armv7": "cortex-a9", "armv8": "cortex-a72"} {
		if cfg, err := Config(isaName, 2); err != nil || cfg.Timing.Name != want || cfg.Cores != 2 {
			t.Errorf("Config(%q, 2) = %s x%d, %v; want %s x2", isaName, cfg.Timing.Name, cfg.Cores, err, want)
		}
	}
	if _, err := Config("armv9", 1); err == nil {
		t.Error("unknown ISA accepted")
	}
}
