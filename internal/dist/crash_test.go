package dist

// The journal's crash pins: a line whose write died at any byte was never
// acknowledged and never stops a restart, and an append that failed leaves
// nothing behind for the next restart to trip over.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/jsonl"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestTornJournalRestoresQueue: with a submit line torn at any byte behind
// the acknowledged ones, RestoreQueue succeeds and lists exactly the
// acknowledged submission, the next Submit lands, the journal is then the
// acknowledged lines plus that one (the torn bytes were cut when the restore
// opened it), and a third restore sees both. Before the journal was a
// jsonl.Log every one of these restores failed with "dist journal line 2:
// unexpected end of JSON input" until somebody edited the file by hand.
func TestTornJournalRestoresQueue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	jobs := compatJobs()
	restore := func(what string, wantIDs ...string) (*Coordinator, *Journal) {
		t.Helper()
		coord, journal, err := RestoreQueue(path, ShardSize(2), WithStore(campaign.NewMemStore()))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		var ids []string
		for _, ms := range coord.MatrixList() {
			ids = append(ids, ms.ID)
		}
		if !reflect.DeepEqual(ids, wantIDs) {
			t.Fatalf("%s lists %v, want %v", what, ids, wantIDs)
		}
		return coord, journal
	}
	coord, journal := restore("the first boot")
	id1, err := coord.Submit(SubmitSpec{Tenant: "alice", Jobs: jobs[:2], Faults: compatFaults})
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	acked := readFile(t, path)
	// What the second submission appends; its torn prefixes are the crash.
	coord, journal = restore("the second boot", id1)
	id2, err := coord.Submit(SubmitSpec{Tenant: "bob", Jobs: jobs[2:], Faults: compatFaults, RecordRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	both := readFile(t, path)
	line := strings.TrimSuffix(strings.TrimPrefix(both, acked), "\n")
	if !strings.HasPrefix(line, `{"op":"submit","id":"`+id2) || strings.Contains(line, "\n") {
		t.Fatalf("the second submission appended %q, want one submit line", line)
	}

	for k := 1; k <= len(line); k++ {
		if err := os.WriteFile(path, []byte(acked+line[:k]), 0o644); err != nil {
			t.Fatal(err)
		}
		coord, journal := restore("the restore over the torn line", id1)
		if got := readFile(t, path); got != acked {
			t.Fatalf("torn at byte %d: the journal opened for appending holds\n%s\nwant the acknowledged line alone", k, got)
		}
		// The torn submission was never acknowledged, so its ID is free.
		id, err := coord.Submit(SubmitSpec{Tenant: "bob", Jobs: jobs[2:], Faults: compatFaults, RecordRuns: true})
		if err != nil || id != id2 {
			t.Fatalf("torn at byte %d: Submit after the restore: %q, %v", k, id, err)
		}
		if err := journal.Close(); err != nil {
			t.Fatal(err)
		}
		if got := readFile(t, path); got != both {
			t.Fatalf("torn at byte %d: journal holds\n%s\nwant\n%s", k, got, both)
		}
		_, journal = restore("the third boot", id1, id2)
		journal.Close()
	}
}

// faultyFile is an append-mode file whose next Write or Sync fails once, as
// set; everything else goes through.
type faultyFile struct {
	*os.File
	short   int // >= 0: the next Write lands this many bytes, then ENOSPC
	syncErr bool
}

func (f *faultyFile) Write(b []byte) (int, error) {
	if k := f.short; k >= 0 {
		f.short = -1
		n, _ := f.File.Write(b[:min(k, len(b))])
		return n, syscall.ENOSPC
	}
	return f.File.Write(b)
}

func (f *faultyFile) Sync() error {
	if f.syncErr {
		f.syncErr = false
		return syscall.EIO
	}
	return f.File.Sync()
}

// TestJournalFailedAppendLeavesNoBytes: an append whose write came up short
// (ENOSPC) or whose fsync failed reports the error and leaves the journal
// ending where the last acknowledged operation ended, so the appends after
// it and the next restore are untouched by it. Before the journal was a
// jsonl.Log the half line stayed, the next operation was glued to it, and
// every later RestoreQueue failed at that line.
func TestJournalFailedAppendLeavesNoBytes(t *testing.T) {
	var ff *faultyFile
	old := openLog
	t.Cleanup(func() { openLog = old })
	openLog = func(path string, n int64, sync bool) (*jsonl.Log, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { f.Close() })
		ff = &faultyFile{File: f, short: -1}
		return jsonl.New(ff, n, sync), nil
	}
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	entry := func(id string) JournalEntry {
		return JournalEntry{Op: "submit", ID: id, Tenant: "t-" + id, Faults: compatFaults, Jobs: wireFromJobs(compatJobs()[:1])}
	}
	var want string
	for _, step := range []struct {
		id    string
		short int
		sync  bool
	}{{"m000001", -1, false}, {"m000002", 11, false}, {"m000003", -1, false}, {"m000004", -1, true}, {"m000005", -1, false}} {
		ff.short, ff.syncErr = step.short, step.sync
		err := j.Append(entry(step.id))
		if failed := step.short >= 0 || step.sync; failed != (err != nil) {
			t.Fatalf("append %s: %v", step.id, err)
		}
		if err == nil {
			line, _ := json.Marshal(entry(step.id))
			want += string(line) + "\n"
		}
		if got := readFile(t, path); got != want {
			t.Fatalf("after append %s (%v) the journal holds\n%s\nwant\n%s", step.id, err, got, want)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	coord, j2, err := RestoreQueue(path, ShardSize(2), WithStore(campaign.NewMemStore()))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var ids []string
	for _, ms := range coord.MatrixList() {
		ids = append(ids, ms.ID)
	}
	if want := []string{"m000001", "m000003", "m000005"}; !reflect.DeepEqual(ids, want) {
		t.Errorf("restored queue lists %v, want %v", ids, want)
	}
}

// TestQueueRestartOverTornJournalAndSegment is TestQueueRestartResumesMidQueue
// with the crash it stands for made literal: the coordinator dies with one
// submission stored and one untouched, and with a half-written line at the
// end of the journal and of the tenant's active segment. The restart
// succeeds, the queue drains, and what it fetches and what its store holds
// still match the sequential engine byte for byte.
func TestQueueRestartOverTornJournalAndSegment(t *testing.T) {
	jobs := compatJobs()
	m1, m2 := jobs[:2], jobs[2:]
	refLines := engineReference(t, m1, m2)

	dir := t.TempDir()
	root := filepath.Join(dir, "segs")
	journalPath := filepath.Join(dir, "queue.jsonl")
	st, err := campaign.OpenSegmentedStore(root)
	if err != nil {
		t.Fatal(err)
	}
	coord, journal, err := RestoreQueue(journalPath, ShardSize(2), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	id1, err := coord.Submit(SubmitSpec{Tenant: "alice", Jobs: m1, Faults: compatFaults})
	if err != nil {
		t.Fatal(err)
	}
	stop := startQueueWorkers(t, coord, 2)
	waitSubmissions(t, coord, id1)
	stop()
	id2, err := coord.Submit(SubmitSpec{Tenant: "alice", Jobs: m2, Faults: compatFaults})
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash: half of a third submission in the journal, half of a row in
	// alice's unsealed segment.
	seg := filepath.Join(root, "t-alice", "seg-000001.jsonl")
	row, _, _ := strings.Cut(readFile(t, seg), "\n")
	op, _, _ := strings.Cut(readFile(t, journalPath), "\n")
	for path, torn := range map[string]string{seg: row[:len(row)/2], journalPath: strings.Replace(op, id1, "m000003", 1)[:len(op)/2]} {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(torn); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	st2, err := campaign.OpenSegmentedStore(root)
	if err != nil {
		t.Fatalf("store over a torn segment: %v", err)
	}
	coord2, journal2, err := RestoreQueue(journalPath, ShardSize(2), WithStore(st2))
	if err != nil {
		t.Fatalf("queue over a torn journal: %v", err)
	}
	defer journal2.Close()
	if list := coord2.MatrixList(); len(list) != 2 || list[0].ID != id1 || list[0].State != "done" || list[1].ID != id2 {
		t.Fatalf("restored queue: %+v, want %s done and %s queued", list, id1, id2)
	}
	stop2 := startQueueWorkers(t, coord2, 2)
	waitSubmissions(t, coord2, id1, id2)
	stop2()
	var fetched []string
	for _, id := range []string{id1, id2} {
		state, db, err := coord2.FetchDB(id)
		if err != nil || state != "done" {
			t.Fatalf("FetchDB %s: state=%q err=%v", id, state, err)
		}
		fetched = append(fetched, strings.Split(strings.TrimRight(string(db), "\n"), "\n")...)
	}
	sort.Strings(fetched)
	if !reflect.DeepEqual(fetched, refLines) {
		t.Errorf("fetched rows differ from sequential engine runs:\n queue: %v\n ref:   %v", fetched, refLines)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tenantRecordLines(t, root, "alice"); !reflect.DeepEqual(got, refLines) {
		t.Errorf("stored rows differ from sequential engine runs (a torn tail left in the segment shows here):\n queue: %v\n ref:   %v", got, refLines)
	}
}
