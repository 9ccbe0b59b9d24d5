package exp

import (
	"context"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/npb"
	"serfi/internal/sens"
)

// TestRenderingsAreDeterministic: what is rendered from recorded rows is a
// function of the rows. One small traced database (armv8/IS/SER-1 under
// reg, mem and cachetag) is read back twice, and every catalogued artefact,
// the full report and the sens text and HTML rendered from the two reads must
// be the same bytes. Each read hands NewMatrix its rows in map order, as
// `serfi experiments -from` does, and sens its rows in key order, as
// `serfi sens` does.
func TestRenderingsAreDeterministic(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "rows.jsonl")
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	eng := campaign.New(campaign.Faults(8), campaign.Models(fault.Reg, fault.Mem, fault.CacheTag),
		campaign.TraceProp(), campaign.WithStore(st))
	if _, err := eng.RunMatrix(ctx, eng.JobsFor([]npb.Scenario{sc}, 7)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var grp *campaign.Group
	render := func() map[string]string {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		byKey, err := campaign.ReadDB(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(byKey) != 3 {
			t.Fatalf("read %d campaigns, want 3", len(byKey))
		}
		m := NewMatrix(slices.Collect(maps.Values(byKey)))
		out := map[string]string{"Report": Report(m, 42*time.Second)}
		for _, a := range Artefacts {
			out[a.Name] = a.Format(m)
		}
		var rows []*campaign.Result
		for _, key := range slices.Sorted(maps.Keys(byKey)) {
			rows = append(rows, byKey[key])
		}
		if grp == nil {
			if grp, err = campaign.BuildGroup(ctx, sc, rows[0].Seed, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := sens.Analyze(grp, rows)
		if err != nil {
			t.Fatal(err)
		}
		out["sens Text"] = rep.Text(0)
		out["sens HTML"] = sens.HTML([]*sens.Report{rep})
		return out
	}
	first, second := render(), render()
	for name, a := range first {
		if a == "" {
			t.Errorf("%s rendered nothing", name)
		}
		if b := second[name]; a != b {
			t.Errorf("%s differs between two reads of the same rows:\n%s\n---\n%s", name, a, b)
		}
	}
}
