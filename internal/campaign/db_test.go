package campaign_test

import (
	"bytes"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
	"serfi/internal/prop"
)

// storedRow is one database line as every campaign writes it: a v4 row of
// the armv8/IS/SER-1 register campaign with its per-fault records.
const storedRow = `{"v":4,"scenario":"armv8/IS/SER-1","domain":"reg","faults":4,"seed":7,` +
	`"counts":{"hang":0,"omm":0,"ona":1,"ut":1,"vanished":2},` +
	`"golden":{"AppStart":10,"AppEnd":20,"Retired":30,"Cycles":40},` +
	`"features":{"branch_pct":12.5},"api_calls":3,` +
	`"runs":[{"i":11,"r":3,"o":0},{"i":12,"r":4,"b":9,"o":0},{"i":13,"o":1},{"i":14,"r":1,"o":3}]}`

// TestReadDBRefusesLegacyRows: a row an older build wrote — unversioned, v2
// or v3 — and a row of an unknown version are refused by ReadDB and by
// OpenFileStore, naming the line and saying to rerun the campaign.
func TestReadDBRefusesLegacyRows(t *testing.T) {
	other := strings.Replace(storedRow, "armv8/IS/SER-1", "armv8/MG/SER-1", 1)
	for name, row := range map[string]string{
		"unversioned": strings.Replace(storedRow, `"v":4,`, ``, 1),
		"v2":          strings.Replace(storedRow, `"v":4,`, `"v":2,`, 1),
		"v3":          strings.Replace(storedRow, `"v":4,`, `"v":3,`, 1),
		"v9":          strings.Replace(storedRow, `"v":4,`, `"v":9,`, 1),
	} {
		db := other + "\n" + row + "\n"
		check := func(how string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "rerun the campaign") {
				t.Errorf("%s: %s of a %s row: err = %v, want line 2 refused with the advice to rerun", name, how, name, err)
			}
		}
		_, err := campaign.ReadDB(strings.NewReader(db))
		check("ReadDB", err)
		path := t.TempDir() + "/db.jsonl"
		if err := os.WriteFile(path, []byte(db), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := campaign.OpenFileStore(path)
		if err == nil {
			st.Close()
		}
		check("OpenFileStore", err)
	}
}

func TestReadDBRejectsDuplicates(t *testing.T) {
	db := storedRow + "\n" + storedRow + "\n"
	if _, err := campaign.ReadDB(strings.NewReader(db)); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate rows accepted: %v", err)
	}
	// Same scenario under different domains is NOT a duplicate.
	mem := strings.Replace(storedRow, `"domain":"reg"`, `"domain":"mem"`, 1)
	got, err := campaign.ReadDB(strings.NewReader(storedRow + "\n" + mem + "\n"))
	if err != nil {
		t.Fatalf("distinct domains rejected: %v", err)
	}
	if len(got) != 2 || got["armv8/IS/SER-1#mem"] == nil {
		t.Errorf("domain-qualified key missing: %v", got)
	}
	if r := got["armv8/IS/SER-1"]; r == nil || r.Domain != fault.Reg || len(r.Runs) != 4 ||
		r.Counts[fi.Vanished] != 2 || r.Counts[fi.UT] != 1 || r.Seed != 7 {
		t.Errorf("register row did not load under the bare scenario ID: %+v", r)
	}
}

func TestReadDBRejectsUnknownVersion(t *testing.T) {
	row := strings.Replace(storedRow, `"v":4,`, `"v":9,`, 1)
	if _, err := campaign.ReadDB(strings.NewReader(row + "\n")); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("unknown record version accepted: %v", err)
	}
}

func TestReadDBRejectsUnversionedDomainRow(t *testing.T) {
	row := strings.Replace(storedRow, `"v":4,`, ``, 1)
	row = strings.Replace(row, `"domain":"reg"`, `"domain":"mem"`, 1)
	if _, err := campaign.ReadDB(strings.NewReader(row + "\n")); err == nil {
		t.Error("unversioned row with a domain field accepted")
	}
}

func TestReadDBRejectsBadDomain(t *testing.T) {
	row := strings.Replace(storedRow, `"domain":"reg"`, `"domain":"cosmic"`, 1)
	if _, err := campaign.ReadDB(strings.NewReader(row + "\n")); err == nil ||
		!strings.Contains(err.Error(), "cosmic") {
		t.Errorf("unknown domain accepted: %v", err)
	}
}

// TestDomainDBRoundTrip writes a non-register result and reloads it.
func TestDomainDBRoundTrip(t *testing.T) {
	r := &campaign.Result{
		Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1},
		Domain:   fault.IMem,
		Faults:   4,
		Seed:     11,
	}
	r.Counts[fi.ONA] = 3
	r.Counts[fi.UT] = 1
	var buf bytes.Buffer
	if err := campaign.WriteDB(&buf, []*campaign.Result{r}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"v":4`) || !strings.Contains(buf.String(), `"domain":"imem"`) {
		t.Fatalf("record not versioned: %s", buf.String())
	}
	got, err := campaign.ReadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	l := got["armv8/IS/SER-1#imem"]
	if l == nil {
		t.Fatalf("imem key missing: %v", got)
	}
	if l.Domain != fault.IMem || l.Counts != r.Counts || l.Seed != 11 {
		t.Errorf("imem row did not round-trip: %+v", l)
	}
}

// storeImpls builds one empty instance of every Store backend.
func storeImpls(t *testing.T) map[string]campaign.Store {
	t.Helper()
	fs, err := campaign.OpenFileStore(t.TempDir() + "/db.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	ss, err := campaign.OpenSegmentedStore(t.TempDir() + "/segs")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	return map[string]campaign.Store{"file": fs, "seg": ss}
}

func storeResult(app string, d fault.Model, faults int) *campaign.Result {
	r := &campaign.Result{
		Scenario: npb.Scenario{App: app, Mode: npb.Serial, ISA: "armv8", Cores: 1},
		Domain:   d,
		Faults:   faults,
		Seed:     5,
	}
	r.Counts[fi.Vanished] = faults
	return r
}

// TestStoreRejectsDuplicateAppend: a key already present must be rejected
// by every backend — campaign identities are immutable and resume skips
// them instead of rewriting.
func TestStoreRejectsDuplicateAppend(t *testing.T) {
	for name, st := range storeImpls(t) {
		r := storeResult("IS", fault.Reg, 4)
		if err := st.Put(r); err != nil {
			t.Fatalf("%s: first Put: %v", name, err)
		}
		if err := st.Put(storeResult("IS", fault.Reg, 4)); err == nil ||
			!strings.Contains(err.Error(), "duplicate") {
			t.Errorf("%s: duplicate Put accepted: %v", name, err)
		}
		// The same scenario under another domain is a distinct campaign.
		if err := st.Put(storeResult("IS", fault.Mem, 4)); err != nil {
			t.Errorf("%s: distinct-domain Put rejected: %v", name, err)
		}
		got, ok := st.Get(r.Key())
		if !ok || got.Faults != 4 {
			t.Errorf("%s: Get after duplicate rejection = %v %v", name, got, ok)
		}
	}
}

// TestStoreQueryEmptyPredicateSet: the zero Query selects the whole store
// in sorted key order.
func TestStoreQueryEmptyPredicateSet(t *testing.T) {
	for name, st := range storeImpls(t) {
		for _, r := range []*campaign.Result{
			storeResult("MG", fault.Reg, 2),
			storeResult("IS", fault.Reg, 2),
			storeResult("IS", fault.IMem, 2),
		} {
			if err := st.Put(r); err != nil {
				t.Fatal(err)
			}
		}
		all := st.Query(campaign.Query{})
		if len(all) != 3 {
			t.Fatalf("%s: empty query returned %d of 3 rows", name, len(all))
		}
		keys := st.Keys()
		for i, r := range all {
			if r.Key() != keys[i] {
				t.Errorf("%s: query order %q != sorted key order %q", name, r.Key(), keys[i])
			}
		}
		if !sort.StringsAreSorted(keys) {
			t.Errorf("%s: Keys not sorted: %v", name, keys)
		}
	}
}

// TestStoreQueryPredicates exercises the per-axis constraints and the
// arbitrary Match predicate, which carries every other identity axis.
func TestStoreQueryPredicates(t *testing.T) {
	st, err := campaign.OpenFileStore(t.TempDir() + "/db.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	put := func(app, isaName string, mode npb.Mode, cores int, d fault.Model) {
		r := &campaign.Result{
			Scenario: npb.Scenario{App: app, Mode: mode, ISA: isaName, Cores: cores},
			Domain:   d, Faults: 1,
		}
		if err := st.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	put("IS", "armv8", npb.Serial, 1, fault.Reg)
	put("IS", "armv8", npb.MPI, 4, fault.Reg)
	put("IS", "armv7", npb.MPI, 4, fault.Mem)
	put("EP", "armv8", npb.OMP, 2, fault.Reg)

	if got := st.Query(campaign.Query{Apps: []string{"EP"}}); len(got) != 1 || got[0].Scenario.App != "EP" {
		t.Errorf("app query = %v", got)
	}
	isa := func(name string) func(npb.Scenario, fault.Model) bool {
		return func(sc npb.Scenario, _ fault.Model) bool { return sc.ISA == name }
	}
	if got := st.Query(campaign.Query{Match: isa("armv7")}); len(got) != 1 || got[0].Domain != fault.Mem {
		t.Errorf("isa query = %v", got)
	}
	if got := st.Query(campaign.Query{Match: func(sc npb.Scenario, _ fault.Model) bool { return sc.Mode == npb.MPI }}); len(got) != 2 {
		t.Errorf("mode query returned %d rows", len(got))
	}
	if got := st.Query(campaign.Query{Domains: []fault.Model{fault.Mem}}); len(got) != 1 {
		t.Errorf("domain query returned %d rows", len(got))
	}
	if got := st.Query(campaign.Query{
		Apps:  []string{"IS"},
		Match: func(sc npb.Scenario, _ fault.Model) bool { return sc.ISA == "armv8" && sc.Cores > 1 },
	}); len(got) != 1 {
		t.Errorf("combined query returned %d rows", len(got))
	}
	if got := st.Query(campaign.Query{Match: func(sc npb.Scenario, _ fault.Model) bool { return sc.Cores == 8 }}); len(got) != 0 {
		t.Errorf("no-match query returned %d rows", len(got))
	}
}

// TestFileStoreRejectsTruncatedLine: a JSONL line cut mid-record (torn
// write, disk-full interruption) must fail loudly at open, not load as a
// shorter database.
func TestFileStoreRejectsTruncatedLine(t *testing.T) {
	full := storedRow + "\n"
	// Cut inside the second record's JSON.
	second := strings.Replace(storedRow, "armv8/IS/SER-1", "armv8/MG/SER-1", 1)
	torn := full + second[:len(second)/2]
	path := t.TempDir() + "/torn.jsonl"
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.OpenFileStore(path); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Errorf("torn database accepted: %v", err)
	}
	// The same torn stream through the reader path.
	if _, err := campaign.ReadDB(strings.NewReader(torn)); err == nil {
		t.Error("ReadDB accepted a truncated trailing record")
	}
}

func TestParseKey(t *testing.T) {
	sc, d, err := campaign.ParseKey("armv7/MG/MPI-4#burst")
	if err != nil || d != fault.Burst || sc.App != "MG" || sc.Cores != 4 {
		t.Errorf("ParseKey = %v %v %v", sc, d, err)
	}
	sc, d, err = campaign.ParseKey("armv7/MG/MPI-4")
	if err != nil || d != fault.Reg {
		t.Errorf("bare ParseKey = %v %v %v", sc, d, err)
	}
	if _, _, err = campaign.ParseKey("armv7/MG/MPI-4#cosmic"); err == nil {
		t.Error("bad domain key accepted")
	}
}

// TestFileStoreFsyncDurability: every FileStore appends and flushes each
// record at Put — reopening the path (the crash-recovery read) sees every
// acknowledged campaign, and duplicates are still rejected.
func TestFileStoreFsyncDurability(t *testing.T) {
	path := t.TempDir() + "/sync.jsonl"
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(storeResult("IS", fault.Reg, 3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(storeResult("MG", fault.Mem, 3)); err != nil {
		t.Fatal(err)
	}
	// Reopen WITHOUT closing: the fsynced rows must already be on disk.
	re, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := len(re.Keys()); got != 2 {
		t.Fatalf("reopened fsync store holds %d campaigns, want 2", got)
	}
	if err := st.Put(storeResult("IS", fault.Reg, 3)); err == nil {
		t.Error("fsync store accepted a duplicate key")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreKeysDeterministic: Keys is sorted on every backend regardless
// of insertion order, so status output and record diffs are stable.
func TestStoreKeysDeterministic(t *testing.T) {
	for name, st := range storeImpls(t) {
		for _, r := range []*campaign.Result{
			storeResult("UA", fault.Reg, 1),
			storeResult("BT", fault.IMem, 1),
			storeResult("MG", fault.Burst, 1),
			storeResult("BT", fault.Reg, 1),
		} {
			if err := st.Put(r); err != nil {
				t.Fatal(err)
			}
		}
		want := append([]string(nil), st.Keys()...)
		sort.Strings(want)
		for trial := 0; trial < 3; trial++ {
			if got := st.Keys(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Keys() unstable: %v != %v", name, got, want)
			}
		}
	}
}

// recordedResult builds a v4 result with per-fault rows; the
// middle row carries a full propagation trace.
func recordedResult(app string, d fault.Model) *campaign.Result {
	r := &campaign.Result{
		Scenario: npb.Scenario{App: app, Mode: npb.Serial, ISA: "armv8", Cores: 1},
		Domain:   d,
		Faults:   3,
		Seed:     9,
		Runs: []fi.Result{
			{Fault: fault.Point{Domain: d, Index: 100, Core: 0, Reg: 3, Bit: 7}, Outcome: fi.Vanished},
			{Fault: fault.Point{Domain: d, Index: 200, Core: 0, Reg: 13, Bit: 1}, Outcome: fi.OMM},
			{Fault: fault.Point{Domain: d, Index: 300, Core: 0, Reg: 5, Bit: 62}, Outcome: fi.ONA},
		},
		Traces: []*prop.Trace{
			nil,
			{Escape: prop.EscapeMem, ArchInstr: 42, ArchCyc: 55, TimingInstr: -1,
				MemInstr: 48, XCoreInstr: -1, KernelInstr: -1},
			nil,
		},
	}
	r.Counts[fi.Vanished] = 1
	r.Counts[fi.OMM] = 1
	r.Counts[fi.ONA] = 1
	return r
}

// TestReadDBLargeRunsRow: a v4 row has no size bound — 40 000
// mem-domain runs make a ~2 MiB line, past the 1 MiB scanner cap ReadDB used
// to carry — so whatever WriteDB wrote must read back, rewrite byte for byte
// and reopen as a FileStore (the -resume, `serfi sens` and `experiments
// -from` path).
func TestReadDBLargeRunsRow(t *testing.T) {
	const n = 40000
	big := &campaign.Result{
		Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1},
		Domain:   fault.Mem,
		Faults:   n,
		Seed:     9,
		Runs:     make([]fi.Result, n),
	}
	for i := range big.Runs {
		big.Runs[i] = fi.Result{
			Fault:   fault.Point{Domain: fault.Mem, Index: uint64(1000000 + 7*i), Addr: uint32(0x100000 + 4*i), Bit: i % 32},
			Outcome: fi.Outcome(i % int(fi.NumOutcomes)),
		}
		big.Counts.Add(big.Runs[i].Outcome)
	}
	var buf bytes.Buffer
	if err := campaign.WriteDB(&buf, []*campaign.Result{big, storeResult("EP", fault.Reg, 2)}); err != nil {
		t.Fatal(err)
	}
	if first := bytes.IndexByte(buf.Bytes(), '\n'); first <= 1<<20 {
		t.Fatalf("row is %d bytes; the test needs one past 1 MiB", first)
	}
	got, err := campaign.ReadDB(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadDB of what WriteDB wrote: %v", err)
	}
	re := got[big.Key()]
	if re == nil || len(re.Runs) != n || re.Runs[n-1].Fault != big.Runs[n-1].Fault {
		t.Fatalf("large row did not reload its %d runs", n)
	}
	var again bytes.Buffer
	if err := campaign.WriteDB(&again, []*campaign.Result{re, got["armv8/EP/SER-1"]}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Error("write-read-rewrite is not byte-stable for a large v4 row")
	}
	path := t.TempDir() + "/big.jsonl"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	defer st.Close()
	if r, ok := st.Get(big.Key()); !ok || len(r.Runs) != n {
		t.Errorf("reopened store lost the large row (found %v)", ok)
	}
}

// TestStoreQueryContentPredicates: HasRuns selects on row content (not
// identity) and behaves identically on every backend.
func TestStoreQueryContentPredicates(t *testing.T) {
	for name, st := range storeImpls(t) {
		bare := storeResult("IS", fault.Reg, 2)
		traced := storeResult("MG", fault.Reg, 2)
		traced.Prop = &prop.Summary{Traced: 1, Escapes: map[string]int{"mem": 1}}
		recorded := recordedResult("IS", fault.Mem)
		for _, r := range []*campaign.Result{bare, traced, recorded} {
			if err := st.Put(r); err != nil {
				t.Fatalf("%s: Put: %v", name, err)
			}
		}
		got := st.Query(campaign.Query{HasRuns: true})
		if len(got) != 1 || len(got[0].Runs) != got[0].Faults {
			t.Errorf("%s: HasRuns = %v", name, got)
		}
		// Content and identity predicates compose.
		if got := st.Query(campaign.Query{HasRuns: true, Apps: []string{"MG"}}); len(got) != 0 {
			t.Errorf("%s: HasRuns+app returned %d rows, want 0", name, len(got))
		}
	}
}

// TestRecordRunsDBRoundTrip: a v4 row reloads its per-fault tuples and
// outcomes exactly, its traced rows keep the escape class and
// arch-divergence latency (every other latency axis resets to -1), and
// re-writing the reloaded result reproduces the database byte for byte. A
// result without runs writes a v4 row without a runs key.
func TestRecordRunsDBRoundTrip(t *testing.T) {
	v4 := recordedResult("IS", fault.Reg)
	v2 := storeResult("EP", fault.Reg, 2)
	var buf bytes.Buffer
	if err := campaign.WriteDB(&buf, []*campaign.Result{v4, v2}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	if !strings.Contains(lines[0], `"v":4`) || !strings.Contains(lines[0], `"runs":[`) {
		t.Errorf("v4 row lacks version/runs: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"v":4`) || strings.Contains(lines[1], "runs") {
		t.Errorf("result without runs did not write a v4 row without runs: %s", lines[1])
	}

	got, err := campaign.ReadDB(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	re := got[v4.Key()]
	if re == nil || len(re.Runs) != re.Faults {
		t.Fatalf("v4 row did not reload as a recorded campaign: %+v", re)
	}
	if len(re.Runs) != len(v4.Runs) {
		t.Fatalf("reloaded %d runs, want %d", len(re.Runs), len(v4.Runs))
	}
	for i := range re.Runs {
		if re.Runs[i].Fault != v4.Runs[i].Fault || re.Runs[i].Outcome != v4.Runs[i].Outcome {
			t.Errorf("run %d did not round-trip: %+v vs %+v", i, re.Runs[i], v4.Runs[i])
		}
	}
	if re.Traces[0] != nil || re.Traces[2] != nil {
		t.Error("untraced rows grew traces on reload")
	}
	tr := re.Traces[1]
	if tr == nil || tr.Escape != prop.EscapeMem || tr.ArchInstr != 42 {
		t.Fatalf("traced row lost escape/latency: %+v", tr)
	}
	// The compact row persists only the escape class and the paper-facing
	// latency; the other axes read back as never-observed.
	if tr.ArchCyc != -1 || tr.MemInstr != -1 || tr.XCoreInstr != -1 || tr.KernelInstr != -1 {
		t.Errorf("reloaded trace invented latencies: %+v", tr)
	}

	var again bytes.Buffer
	if err := campaign.WriteDB(&again, []*campaign.Result{re, got[v2.Key()]}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Error("write-read-rewrite is not byte-stable for rows with and without runs")
	}
}
