package campaign_test

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
)

// openSeg opens a segmented store in a fresh temp dir and closes it with
// the test.
func openSeg(t *testing.T, opts ...campaign.SegStoreOption) (*campaign.SegmentedStore, string) {
	t.Helper()
	dir := t.TempDir() + "/segs"
	st, err := campaign.OpenSegmentedStore(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, dir
}

// segResult builds a distinct result per (app, domain) with recognizable
// content.
func segResult(app string, d fault.Model, faults int) *campaign.Result {
	r := &campaign.Result{
		Scenario: npb.Scenario{App: app, Mode: npb.Serial, ISA: "armv8", Cores: 1},
		Domain:   d,
		Faults:   faults,
		Seed:     5,
	}
	r.Counts[fi.Vanished] = faults
	return r
}

// TestSegmentedStoreRotatesAndReopens: a tiny rotation threshold forces
// multiple segments; a reopened store rebuilds the same index from footers
// (sealed segments) and tail scan (unsealed), and keeps appending.
func TestSegmentedStoreRotatesAndReopens(t *testing.T) {
	st, dir := openSeg(t, campaign.SegmentBytes(256))
	apps := []string{"IS", "MG", "EP", "CG", "FT", "BT"}
	for _, app := range apps {
		if err := st.Put(segResult(app, fault.Reg, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.Segments(""); n < 2 {
		t.Fatalf("256-byte segments after %d rows: %d segments, want several", len(apps), n)
	}
	wantKeys := st.Keys()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := campaign.OpenSegmentedStore(dir, campaign.SegmentBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Keys(); !reflect.DeepEqual(got, wantKeys) {
		t.Fatalf("reopened keys = %v, want %v", got, wantKeys)
	}
	for _, k := range wantKeys {
		r, ok := re.Get(k)
		if !ok || r.Counts[fi.Vanished] != 2 {
			t.Fatalf("reopened Get(%q) = %+v %v", k, r, ok)
		}
	}
	// The reopened store appends into the adopted tail, and still rejects
	// duplicates across the open boundary.
	if err := re.Put(segResult("IS", fault.Reg, 2)); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Errorf("reopened store accepted a duplicate: %v", err)
	}
	if err := re.Put(segResult("LU", fault.Mem, 2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Get(segResult("LU", fault.Mem, 2).Key()); !ok {
		t.Error("row appended after reopen not readable")
	}
}

// TestSegmentedStoreCompactionEquivalence: Keys/Get/Query answers are
// identical before vs after compaction on a store carrying superseded
// duplicates (deleted-then-rewritten rows spread across segments), and the
// answers also match the plain backends given the same net content.
func TestSegmentedStoreCompactionEquivalence(t *testing.T) {
	st, dir := openSeg(t, campaign.SegmentBytes(256))

	// Build net content: six rows, two of which were superseded (deleted,
	// then re-put with different counts) and one net-deleted.
	for _, app := range []string{"IS", "MG", "EP", "CG", "FT", "BT"} {
		if err := st.Put(segResult(app, fault.Reg, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for _, app := range []string{"IS", "MG"} {
		key := segResult(app, fault.Reg, 2).Key()
		if err := st.Delete(key); err != nil {
			t.Fatal(err)
		}
		if err := st.Put(segResult(app, fault.Reg, 7)); err != nil {
			t.Fatalf("re-put after delete: %v", err)
		}
	}
	dropped := segResult("BT", fault.Reg, 2).Key()
	if err := st.Delete(dropped); err != nil {
		t.Fatal(err)
	}
	if g := st.Garbage(""); g < 3 {
		t.Fatalf("garbage before compaction = %d, want >= 3 superseded rows", g)
	}

	snapshot := func(s campaign.Store) (keys []string, rows map[string]*campaign.Result, queried []string) {
		keys = s.Keys()
		rows = make(map[string]*campaign.Result)
		for _, k := range keys {
			r, ok := s.Get(k)
			if !ok {
				t.Fatalf("Get(%q) lost a listed key", k)
			}
			rows[k] = r
		}
		for _, r := range s.Query(campaign.Query{Domains: []fault.Model{fault.Reg}}) {
			queried = append(queried, r.Key())
		}
		return keys, rows, queried
	}
	beforeKeys, beforeRows, beforeQuery := snapshot(st)
	if contains := sort.SearchStrings(beforeKeys, dropped); contains < len(beforeKeys) && beforeKeys[contains] == dropped {
		t.Fatalf("net-deleted key %q still listed", dropped)
	}

	if err := st.Compact(""); err != nil {
		t.Fatal(err)
	}
	if n := st.Segments(""); n != 1 {
		t.Errorf("segments after compaction = %d, want 1", n)
	}
	if g := st.Garbage(""); g != 0 {
		t.Errorf("garbage after compaction = %d, want 0", g)
	}

	check := func(label string, s campaign.Store) {
		t.Helper()
		keys, rows, query := snapshot(s)
		if !reflect.DeepEqual(keys, beforeKeys) {
			t.Fatalf("%s: keys %v != pre-compaction %v", label, keys, beforeKeys)
		}
		if !reflect.DeepEqual(query, beforeQuery) {
			t.Fatalf("%s: query %v != pre-compaction %v", label, query, beforeQuery)
		}
		for _, k := range keys {
			if rows[k].Counts != beforeRows[k].Counts || rows[k].Faults != beforeRows[k].Faults {
				t.Fatalf("%s: row %q changed: %+v != %+v", label, k, rows[k], beforeRows[k])
			}
		}
	}
	check("after compaction", st)

	// A reopened store (index rebuilt from the merged segment's footer)
	// answers identically too.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := campaign.OpenSegmentedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check("after compaction + reopen", re)

	// The same net content pushed into every other backend answers the
	// same Keys/Get/Query — compaction equivalence across implementations.
	for name, plain := range storeImpls(t) {
		for _, app := range []string{"EP", "CG", "FT"} {
			if err := plain.Put(segResult(app, fault.Reg, 2)); err != nil {
				t.Fatal(err)
			}
		}
		for _, app := range []string{"IS", "MG"} {
			if err := plain.Put(segResult(app, fault.Reg, 7)); err != nil {
				t.Fatal(err)
			}
		}
		check("backend "+name, plain)
	}
}

// TestSegmentedStoreSyncDurability is the FileStore fsync audit applied to
// the segmented store: with SegmentSync every acknowledged Put is on disk,
// so reopening the directory WITHOUT closing sees every row.
func TestSegmentedStoreSyncDurability(t *testing.T) {
	dir := t.TempDir() + "/segs"
	st, err := campaign.OpenSegmentedStore(dir, campaign.SegmentSync())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(segResult("IS", fault.Reg, 3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(segResult("MG", fault.Mem, 3)); err != nil {
		t.Fatal(err)
	}
	re, err := campaign.OpenSegmentedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := len(re.Keys()); got != 2 {
		t.Fatalf("reopened synced store holds %d campaigns, want 2", got)
	}
	if err := st.Put(segResult("IS", fault.Reg, 3)); err == nil {
		t.Error("synced store accepted a duplicate key")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantScopingIsolatesNamespaces: the same campaign key lives
// independently in each tenant namespace, on both TenantStore backends,
// and tenant partitions survive a segmented-store reopen.
func TestTenantScopingIsolatesNamespaces(t *testing.T) {
	seg, dir := openSeg(t)
	backends := map[string]campaign.TenantStore{
		"mem": campaign.NewMemStore(),
		"seg": seg,
	}
	for name, ts := range backends {
		a, b := ts.Tenant("alice"), ts.Tenant("bob")
		if err := a.Put(segResult("IS", fault.Reg, 1)); err != nil {
			t.Fatalf("%s: alice Put: %v", name, err)
		}
		if err := b.Put(segResult("IS", fault.Reg, 9)); err != nil {
			t.Fatalf("%s: bob Put of same key: %v", name, err)
		}
		ra, _ := a.Get("armv8/IS/SER-1")
		rb, _ := b.Get("armv8/IS/SER-1")
		if ra == nil || rb == nil || ra.Faults != 1 || rb.Faults != 9 {
			t.Fatalf("%s: tenant rows crossed: alice=%+v bob=%+v", name, ra, rb)
		}
		if n := len(ts.Keys()); n != 0 {
			t.Errorf("%s: default namespace sees %d tenant keys", name, n)
		}
		// Tenant("") is the store itself.
		if err := ts.Tenant("").Put(segResult("MG", fault.Reg, 1)); err != nil {
			t.Fatal(err)
		}
		if n := len(ts.Keys()); n != 1 {
			t.Errorf("%s: default namespace holds %d keys, want 1", name, n)
		}
	}

	// Segmented partitions are directories and survive reopen.
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := campaign.OpenSegmentedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.TenantNames(); !reflect.DeepEqual(got, []string{"", "alice", "bob"}) {
		t.Fatalf("reopened tenants = %v", got)
	}
	r, ok := re.Tenant("bob").Get("armv8/IS/SER-1")
	if !ok || r.Faults != 9 {
		t.Fatalf("bob's row after reopen = %+v %v", r, ok)
	}

	// TenantView: "" works on any backend, named namespaces need a
	// TenantStore.
	fs, err := campaign.OpenFileStore(t.TempDir() + "/flat.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := campaign.TenantView(fs, ""); err != nil {
		t.Errorf("empty namespace on FileStore: %v", err)
	}
	if _, err := campaign.TenantView(fs, "alice"); err == nil {
		t.Error("named tenant on a flat FileStore accepted")
	}
	if v, err := campaign.TenantView(re, "alice"); err != nil || v == nil {
		t.Errorf("TenantView on segmented store: %v", err)
	}
}

// TestSegmentedStoreRowBytesMatchFileStore: the segmented store writes the
// exact canonical JSONL rows — stripping segment metadata (footers,
// tombstones) and sorting must yield the FileStore's bytes for the same
// results. This is the property that keeps distributed/queued runs
// byte-comparable to local engine databases.
func TestSegmentedStoreRowBytesMatchFileStore(t *testing.T) {
	results := []*campaign.Result{
		segResult("IS", fault.Reg, 4),
		segResult("MG", fault.IMem, 4),
		segResult("EP", fault.Burst, 4),
	}
	fsPath := t.TempDir() + "/flat.jsonl"
	fs, err := campaign.OpenFileStore(fsPath)
	if err != nil {
		t.Fatal(err)
	}
	seg, dir := openSeg(t, campaign.SegmentBytes(128)) // force rotation mid-set
	for _, r := range results {
		if err := fs.Put(r); err != nil {
			t.Fatal(err)
		}
		if err := seg.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := seg.Compact(""); err != nil { // compaction must not perturb bytes either
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	flat, err := os.ReadFile(fsPath)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedDataLines(t, string(flat))
	got := sortedSegmentDataLines(t, filepath.Join(dir, "default"))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("segment rows != FileStore rows:\n got %q\nwant %q", got, want)
	}
}

// sortedDataLines splits a JSONL blob into sorted non-empty lines.
func sortedDataLines(t *testing.T, blob string) []string {
	t.Helper()
	var out []string
	for _, ln := range strings.Split(blob, "\n") {
		if ln != "" {
			out = append(out, ln)
		}
	}
	sort.Strings(out)
	return out
}

// sortedSegmentDataLines reads every segment in a partition directory and
// returns the sorted record rows, skipping footers and tombstones.
func sortedSegmentDataLines(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "seg-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, ln := range strings.Split(string(data), "\n") {
			if ln == "" || strings.HasPrefix(ln, `{"footer"`) || strings.HasPrefix(ln, `{"del"`) {
				continue
			}
			out = append(out, ln)
		}
	}
	sort.Strings(out)
	return out
}

// TestSegmentedStoreBackgroundCompaction: with CompactAfter, accumulating
// superseded rows triggers a background merge without any explicit call.
func TestSegmentedStoreBackgroundCompaction(t *testing.T) {
	st, _ := openSeg(t, campaign.SegmentBytes(128), campaign.CompactAfter(3))
	for _, app := range []string{"IS", "MG", "EP", "CG"} {
		if err := st.Put(segResult(app, fault.Reg, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for _, app := range []string{"IS", "MG", "EP"} {
		key := segResult(app, fault.Reg, 2).Key()
		if err := st.Delete(key); err != nil {
			t.Fatal(err)
		}
		if err := st.Put(segResult(app, fault.Reg, 8)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Garbage("") > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never ran: garbage = %d", st.Garbage(""))
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, app := range []string{"IS", "MG", "EP"} {
		r, ok := st.Get(segResult(app, fault.Reg, 8).Key())
		if !ok || r.Faults != 8 {
			t.Fatalf("post-compaction row for %s = %+v %v", app, r, ok)
		}
	}
}

// TestSegmentedStoreCloseRightAfterOpen: Close must return even when it wins
// the race against the compaction goroutine's first look at its queue (the
// goroutine used to read the field Close had just nilled and block forever).
func TestSegmentedStoreCloseRightAfterOpen(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 200; i++ {
		st, err := campaign.OpenSegmentedStore(filepath.Join(dir, "segs"), campaign.CompactAfter(8))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- st.Close() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Close hung on open→close round %d", i)
		}
	}
}

// TestValidTenant pins the namespace charset: path-safe tokens only.
func TestValidTenant(t *testing.T) {
	for _, ok := range []string{"", "alice", "team-7", "a.b_c", "X9"} {
		if !campaign.ValidTenant(ok) {
			t.Errorf("ValidTenant(%q) = false", ok)
		}
	}
	for _, bad := range []string{"a/b", "..", ".hidden", "no spaces", "ü", strings.Repeat("x", 65)} {
		if campaign.ValidTenant(bad) {
			t.Errorf("ValidTenant(%q) = true", bad)
		}
	}
}
