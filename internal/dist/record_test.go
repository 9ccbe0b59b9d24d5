package dist

// Every campaign writes its per-fault rows as v4 records, and the rows a
// database already holds stay byte for byte when a run resumes over it.

import (
	"context"
	"os"
	"strings"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/npb"
	"serfi/internal/sens"
)

// storedFeatures is the features column as a campaign writes it.
const storedFeatures = `"features":{"api_window":0,"branch_pct":12.5,"branches":0,"calls":0,` +
	`"ctx_switches":0,"cycles":0,"fb_index":0,"fp_pct":0,"idle_cycles":0,"imbalance":0,` +
	`"instructions":0,"kernel_pct":0,"l1d_miss_pct":0,"l2_miss_pct":0,"mem_pct":0,` +
	`"mispredicts":0,"power_trans":0,"rdwr_ratio":0}`

// storedReg and storedMem are rows of the armv8/IS/SER-1 reg and mem
// campaigns (4 faults, seed 11) as a campaign writes them: the reg row
// traced, with its propagation fold, the mem row untraced.
const (
	storedReg = `{"v":4,"scenario":"armv8/IS/SER-1","domain":"reg","faults":4,"seed":11,` +
		`"counts":{"hang":0,"omm":1,"ona":0,"ut":0,"vanished":3},` +
		`"golden":{"AppStart":10,"AppEnd":20,"Retired":30,"Cycles":40},` + storedFeatures +
		`,"api_calls":3,"prop":{"traced":1,"escapes":{"mem":1},"xcore":0,"arch_i":[42],"arch_c":[55]},` +
		`"runs":[{"i":11,"r":3,"o":0},{"i":12,"r":4,"o":0},{"i":13,"r":5,"o":0},{"i":14,"r":6,"o":2,"e":"mem","ei":42}]}`
	storedMem = `{"v":4,"scenario":"armv8/IS/SER-1","domain":"mem","faults":4,"seed":11,` +
		`"counts":{"hang":0,"omm":0,"ona":1,"ut":1,"vanished":2},` +
		`"golden":{"AppStart":10,"AppEnd":20,"Retired":30,"Cycles":40},` + storedFeatures +
		`,"api_calls":3,` +
		`"runs":[{"i":11,"a":4096,"o":0},{"i":12,"a":4100,"b":3,"o":0},{"i":13,"a":4104,"o":1},{"i":14,"a":4108,"o":3}]}`
	storedDB = storedReg + "\n" + storedMem + "\n"
)

// storedJob is the campaign of armv8/IS/SER-1 under domain d at the stored
// rows' seed.
func storedJob(d fault.Model) campaign.ScenarioJob {
	return campaign.ScenarioJob{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Domain: d, Seed: 11}
}

// TestDefaultCampaignRecordsRuns: an engine given nothing but a fault count
// writes its fresh campaign as a v4 row that `serfi sens` can analyze,
// after the rows it resumed from, which stay byte for byte.
func TestDefaultCampaignRecordsRuns(t *testing.T) {
	path := t.TempDir() + "/db.jsonl"
	if err := os.WriteFile(path, []byte(storedDB), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []campaign.ScenarioJob{storedJob(fault.Reg), storedJob(fault.Mem), storedJob(fault.CacheTag)}
	if _, err := campaign.New(campaign.Faults(4), campaign.WithStore(st)).RunMatrix(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh, ok := strings.CutPrefix(string(data), storedDB)
	if !ok {
		t.Fatalf("the resumed store rewrote its stored rows:\n%s", data)
	}
	if !strings.HasPrefix(fresh, `{"v":4,`) || strings.Count(fresh, "\n") != 1 {
		t.Fatalf("the fresh campaign wrote %q, want one v4 row", fresh)
	}

	re, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Query(campaign.Query{HasRuns: true}); len(got) != 3 {
		t.Fatalf("HasRuns after reopen = %v, want all 3 campaigns", got)
	}
	r, ok := re.Get(storedJob(fault.CacheTag).Key())
	if !ok || len(r.Runs) != 4 {
		t.Fatalf("the fresh cachetag campaign reopened as %+v, want 4 runs", r)
	}
	grp, err := campaign.BuildGroup(context.Background(), r.Scenario, r.Seed, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sens.Analyze(grp, []*campaign.Result{r}); err != nil {
		t.Errorf("sens refused the default campaign's row: %v", err)
	}
}
