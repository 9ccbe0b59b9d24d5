package stats_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"serfi/internal/fi"
	"serfi/internal/npb"
	"serfi/internal/stats"
)

func TestCollectAndDump(t *testing.T) {
	img, cfg, err := npb.BuildScenario(npb.Scenario{App: "EP", Mode: npb.OMP, ISA: "armv8", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	entries := stats.Collect(g.Machine)
	byName := map[string]float64{}
	for _, e := range entries {
		byName[e.Name] = e.Value
	}
	if byName["sim.instructions"] == 0 {
		t.Error("no instructions counted")
	}
	if byName["cpu0.instructions"]+byName["cpu1.instructions"] != byName["sim.instructions"] {
		t.Error("per-core instruction counts do not sum to the total")
	}
	if byName["cpu0.dcache.hits"] == 0 {
		t.Error("no dcache activity")
	}
	if byName["sim.syscalls"] == 0 {
		t.Error("no syscalls recorded (kernel invisible?)")
	}
	var buf bytes.Buffer
	stats.Dump(&buf, entries)
	out := buf.String()
	if !strings.Contains(out, "Begin Simulation Statistics") ||
		!strings.Contains(out, "l2.miss_rate") {
		t.Errorf("dump format:\n%s", out[:200])
	}
}
