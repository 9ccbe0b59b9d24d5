package dist

// Every campaign writes its per-fault rows as v4 records, and the legacy
// v2/v3 rows a database already holds are rewritten exactly as they were
// read: by the engine's resumed store, by WriteDB and by a coordinator
// answering a submission from its store.

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/npb"
	"serfi/internal/sens"
)

// legacyFeatures is the features column as every row version writes it.
const legacyFeatures = `"features":{"api_window":0,"branch_pct":12.5,"branches":0,"calls":0,` +
	`"ctx_switches":0,"cycles":0,"fb_index":0,"fp_pct":0,"idle_cycles":0,"imbalance":0,` +
	`"instructions":0,"kernel_pct":0,"l1d_miss_pct":0,"l2_miss_pct":0,"mem_pct":0,` +
	`"mispredicts":0,"power_trans":0,"rdwr_ratio":0}`

// legacyV3 and legacyV2 are rows of the armv8/IS/SER-1 reg and mem
// campaigns (4 faults, seed 11) as a build without per-fault recording
// wrote them: v3 for a traced campaign, v2 for an untraced one.
const (
	legacyV3 = `{"v":3,"scenario":"armv8/IS/SER-1","domain":"reg","faults":4,"seed":11,` +
		`"counts":{"hang":0,"omm":1,"ona":0,"ut":0,"vanished":3},` +
		`"golden":{"AppStart":10,"AppEnd":20,"Retired":30,"Cycles":40},` + legacyFeatures +
		`,"api_calls":3,"prop":{"traced":1,"escapes":{"mem":1},"xcore":0,"arch_i":[42],"arch_c":[55]}}`
	legacyV2 = `{"v":2,"scenario":"armv8/IS/SER-1","domain":"mem","faults":4,"seed":11,` +
		`"counts":{"hang":0,"omm":0,"ona":1,"ut":1,"vanished":2},` +
		`"golden":{"AppStart":10,"AppEnd":20,"Retired":30,"Cycles":40},` + legacyFeatures +
		`,"api_calls":3}`
	legacyDB = legacyV3 + "\n" + legacyV2 + "\n"
)

// legacyJob is the campaign of armv8/IS/SER-1 under domain d at the legacy
// rows' seed.
func legacyJob(d fault.Model) campaign.ScenarioJob {
	return campaign.ScenarioJob{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Domain: d, Seed: 11}
}

// TestDefaultCampaignRecordsRuns: an engine given nothing but a fault count
// writes its fresh campaign as a v4 row that `serfi sens` can analyze,
// after the legacy rows it resumed from, which stay byte for byte.
func TestDefaultCampaignRecordsRuns(t *testing.T) {
	path := t.TempDir() + "/db.jsonl"
	if err := os.WriteFile(path, []byte(legacyDB), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []campaign.ScenarioJob{legacyJob(fault.Reg), legacyJob(fault.Mem), legacyJob(fault.CacheTag)}
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
	fresh, ok := strings.CutPrefix(string(data), legacyDB)
	if !ok {
		t.Fatalf("the resumed store rewrote its legacy rows:\n%s", data)
	}
	if !strings.HasPrefix(fresh, `{"v":4,`) || strings.Count(fresh, "\n") != 1 {
		t.Fatalf("the fresh campaign wrote %q, want one v4 row", fresh)
	}

	re, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Query(campaign.Query{HasRuns: true})
	if len(got) != 1 || got[0].Key() != legacyJob(fault.CacheTag).Key() || len(got[0].Runs) != 4 {
		t.Fatalf("HasRuns after reopen = %v, want the cachetag campaign with 4 runs", got)
	}
	grp, err := campaign.BuildGroup(context.Background(), got[0].Scenario, got[0].Seed, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sens.Analyze(grp, got); err != nil {
		t.Errorf("sens refused the default campaign's row: %v", err)
	}
}

// TestLegacyRowsRewriteAsRead: hand-written v2 and v3 rows reload without
// runs and rewrite as the bytes they were read from, through WriteDB and
// through FetchDB of a submission the coordinator answers from its store.
func TestLegacyRowsRewriteAsRead(t *testing.T) {
	byKey, err := campaign.ReadDB(strings.NewReader(legacyDB))
	if err != nil {
		t.Fatal(err)
	}
	reg, mem := byKey[legacyJob(fault.Reg).Key()], byKey[legacyJob(fault.Mem).Key()]
	if reg == nil || mem == nil || reg.Runs != nil || mem.Runs != nil {
		t.Fatalf("legacy rows reloaded as %v", byKey)
	}
	var buf bytes.Buffer
	if err := campaign.WriteDB(&buf, []*campaign.Result{reg, mem}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != legacyDB {
		t.Errorf("WriteDB rewrote the legacy rows as\n%s", buf.String())
	}

	path := t.TempDir() + "/db.jsonl"
	if err := os.WriteFile(path, []byte(legacyDB), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	coord := NewQueue(WithStore(st))
	id, err := coord.Submit(SubmitSpec{Jobs: []campaign.ScenarioJob{legacyJob(fault.Mem), legacyJob(fault.Reg)}, Faults: 4})
	if err != nil {
		t.Fatal(err)
	}
	state, db, err := coord.FetchDB(id)
	if err != nil {
		t.Fatal(err)
	}
	if state != "done" || string(db) != legacyDB {
		t.Errorf("store-answered submission is %s and fetches\n%s", state, db)
	}
}
