package npb

import (
	"bytes"
	"maps"
	"slices"
	"sync"
	"testing"

	"serfi/internal/cc"
	"serfi/internal/mach"
	"serfi/internal/mem"
	"serfi/internal/soc"
	"serfi/internal/stack"
)

// freshScenario links sc the uncached way, stack.Build plus the words
// BuildScenario patches, as every scenario was built before the image memo.
func freshScenario(t *testing.T, sc Scenario) (*cc.Image, mach.Config) {
	t.Helper()
	app, _ := AppByName(sc.App)
	cfg, err := soc.Config(sc.ISA, sc.Cores)
	if err != nil {
		t.Fatal(err)
	}
	img, err := stack.Build(cfg, app.Build(), BuildCommon())
	if err != nil {
		t.Fatalf("%s: %v", sc.ID(), err)
	}
	words := map[string]uint64{"__npb_mode": uint64(sc.Mode)}
	switch sc.Mode {
	case OMP:
		words["__omp_nthreads"] = uint64(sc.Cores)
	case MPI:
		words["__mpi_nranks"] = uint64(sc.Cores)
	}
	for sym, v := range words {
		if err := img.SetWord(sym, 0, v); err != nil {
			t.Fatal(err)
		}
	}
	return img, cfg
}

// installed is the RAM of a machine the image was installed into.
func installed(cfg mach.Config, img *cc.Image) *mem.Memory {
	return stack.NewMachine(cfg, img).Mem
}

// sameImage reports how got differs from want, the fresh link of the same
// scenario ("" when it does not): layout, symbols, regions and the RAM an
// install leaves.
func sameImage(got, want *cc.Image, wantRAM *mem.Memory, cfg mach.Config) string {
	switch {
	case got.ISAName != want.ISAName || got.Feat != want.Feat:
		return "ISA differs"
	case got.Entry != want.Entry || got.TextEnd != want.TextEnd:
		return "entry or text end differs"
	case got.HeapBase != want.HeapBase || got.HeapEnd != want.HeapEnd:
		return "heap bounds differ"
	case !slices.Equal(got.Regions, want.Regions):
		return "regions differ"
	case !maps.Equal(got.Symbols, want.Symbols):
		return "symbols differ"
	}
	ram := installed(cfg, got)
	if ram.Size() != wantRAM.Size() {
		return "RAM size differs"
	}
	for off := uint64(0); off < uint64(ram.Size()); off += mem.PageBytes {
		if !bytes.Equal(ram.PageAt(uint32(off)), wantRAM.PageAt(uint32(off))) {
			return "installed RAM differs"
		}
	}
	return ""
}

// TestBuildScenarioMatchesFreshLink holds the per-(app, ISA) image memo to
// the uncached link: every catalogue scenario's BuildScenario image equals a
// fresh stack.Build with the same words patched, a patch to one returned
// image reaches neither another copy nor a later build, and goroutines
// building overlapping scenarios on a cold memo get equal images.
func TestBuildScenarioMatchesFreshLink(t *testing.T) {
	images.Clear()
	type ref struct {
		img *cc.Image
		cfg mach.Config
		ram *mem.Memory
	}
	refs := make(map[Scenario]ref)
	fresh := func(sc Scenario) ref {
		r, ok := refs[sc]
		if !ok {
			img, cfg := freshScenario(t, sc)
			r = ref{img, cfg, installed(cfg, img)}
			refs[sc] = r
		}
		return r
	}

	// Cold memo: 8 goroutines each build the IS and MG scenarios of both
	// ISAs (28 scenarios over 4 image keys), each from its own offset.
	var shared []Scenario
	for _, sc := range Scenarios() {
		if sc.App == "IS" || sc.App == "MG" {
			shared = append(shared, sc)
		}
	}
	const workers = 8
	built := make([][]*cc.Image, workers)
	var wg sync.WaitGroup
	for g := range workers {
		built[g] = make([]*cc.Image, len(shared))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range shared {
				i := (j + 3*g) % len(shared)
				img, _, err := BuildScenario(shared[i])
				if err != nil {
					t.Error(err)
					return
				}
				built[g][i] = img
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, sc := range shared {
		r := fresh(sc)
		for g := range workers {
			if d := sameImage(built[g][i], r.img, r.ram, r.cfg); d != "" {
				t.Errorf("%s built on goroutine %d: %s from a fresh link", sc.ID(), g, d)
			}
		}
	}

	sentinels := []string{"__npb_mode", "__omp_nthreads", "__mpi_nranks"}
	for _, sc := range Scenarios() {
		got, _, err := BuildScenario(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.ID(), err)
		}
		second, _, err := BuildScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		r := fresh(sc)
		if d := sameImage(got, r.img, r.ram, r.cfg); d != "" {
			t.Errorf("%s: %s from a fresh link", sc.ID(), d)
			continue
		}
		for _, sym := range sentinels {
			if err := got.SetWord(sym, 0, 77); err != nil {
				t.Fatal(err)
			}
		}
		later, _, err := BuildScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameImage(second, r.img, r.ram, r.cfg); d != "" {
			t.Errorf("%s: patching one copy changed another: %s", sc.ID(), d)
		}
		if d := sameImage(later, r.img, r.ram, r.cfg); d != "" {
			t.Errorf("%s: patching one copy changed a later build: %s", sc.ID(), d)
		}
		delete(refs, sc)
	}
}
