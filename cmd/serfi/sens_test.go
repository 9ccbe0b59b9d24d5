package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/npb"
)

// TestSensRefusesForeignGolden: `serfi sens` reports the row this build
// wrote, and over the same row with one field of its golden summary changed
// — as a binary with other interpreter semantics would have written it —
// sens.Analyze refuses the row and the command fails naming both summaries.
func TestSensRefusesForeignGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	job := campaign.ScenarioJob{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Domain: fault.Reg, Seed: 3}
	results, err := campaign.New(campaign.Faults(4), campaign.WithStore(st)).RunMatrix(context.Background(), []campaign.ScenarioJob{job})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cmdSens([]string{"-db", path}); err != nil {
		t.Fatalf("serfi sens refused the row this build wrote: %v", err)
	}

	stored := results[0].Golden
	forged := stored
	forged.Retired++
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	field := func(g campaign.GoldenSummary) []byte { return fmt.Appendf(nil, `"Retired":%d,`, g.Retired) }
	if bytes.Count(data, field(stored)) != 1 {
		t.Fatalf("row does not hold %s once:\n%s", field(stored), data)
	}
	if err := os.WriteFile(path, bytes.Replace(data, field(stored), field(forged), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	err = cmdSens([]string{"-db", path})
	if err == nil {
		t.Fatal("serfi sens accepted a row whose golden summary this build does not reproduce")
	}
	for _, want := range []string{fmt.Sprintf("%+v", forged), fmt.Sprintf("%+v", stored)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}
