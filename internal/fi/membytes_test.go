package fi

import (
	"testing"

	"serfi/internal/cache"
	"serfi/internal/mach"
	"serfi/internal/npb"
)

// TestMemBytesCountsCacheChunks: a set's resident bytes are its RAM payload
// plus every distinct cache-state chunk its checkpoints hold. A one-point
// set holds one whole hierarchy; a dense set shares most chunks between
// neighbours, so it holds far less than a hierarchy per checkpoint.
func TestMemBytesCountsCacheChunks(t *testing.T) {
	img, cfg, err := npb.BuildScenario(npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	hier := cache.StateBytes(mach.New(cfg).Hier.State()) // a first capture copies every chunk
	ram := func(cs *CheckpointSet) int {
		n := cs.final.Bytes()
		for _, s := range cs.snaps {
			n += s.MemBytes()
		}
		return n
	}
	for _, n := range []int{1, DefaultCheckpoints} {
		cs, err := BuildCheckpointsOpt(t.Context(), img, cfg, g, CheckpointOptions{N: n})
		if err != nil {
			t.Fatal(err)
		}
		chunks := mach.CacheBytes(cs.snaps)
		if got := cs.MemBytes(); got != ram(cs)+chunks {
			t.Errorf("N=%d: MemBytes = %d, want RAM %d + cache chunks %d", n, got, ram(cs), chunks)
		}
		switch {
		case n == 1 && chunks != hier:
			t.Errorf("one checkpoint holds %d cache bytes, want one hierarchy's %d", chunks, hier)
		case n > 1 && (cs.Len() < n/2 || chunks >= cs.Len()*hier/2):
			t.Errorf("%d checkpoints hold %d cache bytes: no sharing (one hierarchy is %d)", cs.Len(), chunks, hier)
		}
	}
}
