package fi

import (
	"context"
	"testing"

	"serfi/internal/cache"
	"serfi/internal/mach"
	"serfi/internal/npb"
)

// TestMemBytesCountsCacheChunks: a set's resident bytes are every distinct
// RAM page plus every distinct cache-state chunk its checkpoints hold. A
// one-point set holds one whole hierarchy; a dense set shares most pages and
// chunks between neighbours, so it holds far less than a hierarchy and an
// image per checkpoint.
func TestMemBytesCountsCacheChunks(t *testing.T) {
	img, cfg, err := npb.BuildScenario(npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	hier := cache.StateBytes(mach.New(cfg).Hier.State()) // a first capture copies every chunk
	for _, n := range []int{1, DefaultCheckpoints} {
		cs, err := BuildCheckpointsOpt(t.Context(), img, cfg, g, CheckpointOptions{N: n})
		if err != nil {
			t.Fatal(err)
		}
		ram, chunks := mach.MemBytes(cs.snaps...), mach.CacheBytes(cs.snaps)
		if got := cs.MemBytes(); got != ram+chunks {
			t.Errorf("N=%d: MemBytes = %d, want RAM %d + cache chunks %d", n, got, ram, chunks)
		}
		image := 0 // the RAM the checkpoints would hold unshared
		for _, s := range cs.snaps {
			image += mach.MemBytes(s)
		}
		switch {
		case n == 1 && (chunks != hier || ram != image):
			t.Errorf("one checkpoint holds %d cache bytes and %d RAM bytes, want one hierarchy's %d and its image's %d", chunks, ram, hier, image)
		case n > 1 && (cs.Len() < n/2 || chunks >= cs.Len()*hier/2 || ram >= image/2):
			t.Errorf("%d checkpoints hold %d cache bytes and %d RAM bytes: no sharing (one hierarchy is %d, the images %d)", cs.Len(), chunks, ram, hier, image)
		}
	}
}
