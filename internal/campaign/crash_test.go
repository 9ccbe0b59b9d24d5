package campaign_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/jsonl"
)

// TestTornTailReopensToAcknowledgedPrefix: a write that died at any byte of
// (a) a result row, (b) a tombstone or (c) a segment footer — the line was
// never acknowledged — does not stop the store from opening. The reopened
// partition holds exactly the acknowledged rows, the next Put lands, the
// segment file is then the acknowledged prefix plus that row (the torn bytes
// are cut when the partition is first written to), and a third open sees
// both. A half-written footer leaves the segment unsealed and scanned. Before
// the stores shared jsonl.Log every one of these opens failed with
// "seg-000001.jsonl: offset N: unexpected end of JSON input".
func TestTornTailReopensToAcknowledgedPrefix(t *testing.T) {
	root := filepath.Join(t.TempDir(), "segs")
	seg := filepath.Join(root, "t-alice", "seg-000001.jsonl")
	st, err := campaign.OpenSegmentedStore(root)
	if err != nil {
		t.Fatal(err)
	}
	is, mg, ep := segResult("IS", fault.Reg, 4), segResult("MG", fault.Mem, 5), segResult("EP", fault.Reg, 6)
	for _, r := range []*campaign.Result{is, mg, ep} {
		if err := st.Tenant("alice").Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Tenant("alice").(interface{ Delete(string) error }).Delete(ep.Key()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	acked, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{is.Key(): rowLine(is), mg.Key(): rowLine(mg)}

	// The footer a seal would have written: reopen at a rotation size the
	// tail already exceeds, so that the next Put seals it in place.
	sealing, err := campaign.OpenSegmentedStore(root, campaign.SegmentBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sealing.Tenant("alice").Put(segResult("FT", fault.Reg, 1)); err != nil {
		t.Fatal(err)
	}
	if err := sealing.Close(); err != nil {
		t.Fatal(err)
	}
	sealed, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	footer := strings.TrimPrefix(string(sealed), string(acked))
	if !strings.HasPrefix(footer, `{"footer":1,`) || strings.Count(footer, "\n") != 1 {
		t.Fatalf("the seal appended %q, want one footer line", footer)
	}
	if err := os.Remove(filepath.Join(root, "t-alice", "seg-000002.jsonl")); err != nil {
		t.Fatal(err)
	}

	next := segResult("CG", fault.Burst, 7)
	tomb, _ := json.Marshal(map[string]string{"del": is.Key()})
	for name, line := range map[string]string{
		"row":       strings.TrimSuffix(rowLine(segResult("LU", fault.IMem, 8)), "\n"),
		"tombstone": string(tomb),
		"footer":    strings.TrimSuffix(footer, "\n"),
	} {
		t.Run(name, func(t *testing.T) {
			for k := 1; k <= len(line); k++ {
				if err := os.WriteFile(seg, append(append([]byte{}, acked...), line[:k]...), 0o644); err != nil {
					t.Fatal(err)
				}
				check := func(what string, want map[string]string) *campaign.SegmentedStore {
					t.Helper()
					st, err := campaign.OpenSegmentedStore(root)
					if err != nil {
						t.Fatalf("%s torn at byte %d of %d: %s: %v", name, k, len(line), what, err)
					}
					alice := st.Tenant("alice")
					if got := alice.Keys(); len(got) != len(want) {
						t.Fatalf("%s torn at byte %d: %s lists %v, want the keys of %v", name, k, what, got, want)
					}
					for key, row := range want {
						if r, ok := alice.Get(key); !ok || rowLine(r) != row {
							t.Fatalf("%s torn at byte %d: %s: Get(%s) = %v, %v", name, k, what, key, r, ok)
						}
					}
					return st
				}
				st := check("the open over the torn tail", want)
				if n := st.Segments("alice"); n != 1 {
					t.Fatalf("%s torn at byte %d: %d segments, want the one unsealed segment", name, k, n)
				}
				if err := st.Tenant("alice").Put(next); err != nil {
					t.Fatalf("%s torn at byte %d: Put after the reopen: %v", name, k, err)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if got, _ := os.ReadFile(seg); string(got) != string(acked)+rowLine(next) {
					t.Fatalf("%s torn at byte %d: segment holds\n%s\nwant the acknowledged lines and the new row:\n%s%s", name, k, got, acked, rowLine(next))
				}
				both := map[string]string{next.Key(): rowLine(next)}
				for key, row := range want {
					both[key] = row
				}
				check("the third open", both).Close()
			}
		})
	}
}

// TestFileStoreReopensUnterminatedRow: a database whose last row is whole
// but lacks its newline (written by hand, or by another tool) loads, and the
// next Put starts a line of its own. It used to be appended onto that row,
// and the reopen after it failed with "campaign db line 1: invalid character
// '{' after top-level value".
func TestFileStoreReopensUnterminatedRow(t *testing.T) {
	a, b := segResult("IS", fault.Reg, 4), segResult("MG", fault.Mem, 5)
	path := filepath.Join(t.TempDir(), "db.jsonl")
	if err := os.WriteFile(path, []byte(strings.TrimSuffix(rowLine(a), "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(b); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != rowLine(a)+rowLine(b) {
		t.Errorf("database holds\n%q\nwant rows a and b, each on its own line", got)
	}
	re, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	for _, r := range []*campaign.Result{a, b} {
		if got, ok := re.Get(r.Key()); !ok || rowLine(got) != rowLine(r) {
			t.Errorf("reopened Get(%s) = %v, %v", r.Key(), got, ok)
		}
	}
}

// faultyFile is an append-mode file whose next Write or Sync fails once, as
// set; everything else goes through. It counts the Syncs asked of it.
type faultyFile struct {
	*os.File
	short   int // >= 0: the next Write lands this many bytes, then ENOSPC
	syncErr bool
	syncs   int
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
	f.syncs++
	if f.syncErr {
		f.syncErr = false
		return syscall.EIO
	}
	return f.File.Sync()
}

// underFaultyFiles puts a faultyFile under every log the package opens until
// the test ends, and returns the one opened last.
func underFaultyFiles(t *testing.T) (last func() *faultyFile) {
	var ff *faultyFile
	t.Cleanup(campaign.SetOpenLog(func(path string, n int64) (*jsonl.Log, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { f.Close() })
		ff = &faultyFile{File: f, short: -1}
		return jsonl.New(ff, n), nil
	}))
	return func() *faultyFile { return ff }
}

// TestSegmentedStoreSyncsEveryAppend: a store opened with no options fsyncs
// its active segment once per Put and once per Delete, before the call
// returns, and Close has nothing left to sync. Before the sync rule moved
// into jsonl.Log a store opened without the SegmentSync option synced nothing.
func TestSegmentedStoreSyncsEveryAppend(t *testing.T) {
	last := underFaultyFiles(t)
	st, err := campaign.OpenSegmentedStore(filepath.Join(t.TempDir(), "segs"))
	if err != nil {
		t.Fatal(err)
	}
	a, b := segResult("IS", fault.Reg, 1), segResult("MG", fault.Reg, 2)
	for i, step := range []struct {
		what string
		do   func() error
	}{
		{"Put a", func() error { return st.Put(a) }},
		{"Put b", func() error { return st.Put(b) }},
		{"Delete a", func() error { return st.Delete(a.Key()) }},
	} {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		if got := last().syncs; got != i+1 {
			t.Errorf("after %s the segment saw %d syncs, want %d", step.what, got, i+1)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := last().syncs; got != 3 {
		t.Errorf("Close synced: %d syncs, want the 3 of the appends", got)
	}
}

// TestFailedAppendLeavesNoBytesAndNoStaleOffset: a Put or Delete whose write
// came up short (ENOSPC) or whose fsync failed reports the error, leaves no
// byte in the file and moves no offset, so the calls after it land where the
// index and the footer say they did.
func TestFailedAppendLeavesNoBytesAndNoStaleOffset(t *testing.T) {
	a, b, c, d, e, f := segResult("IS", fault.Reg, 1), segResult("MG", fault.Reg, 2), segResult("EP", fault.Reg, 3),
		segResult("CG", fault.Reg, 4), segResult("FT", fault.Reg, 5), segResult("LU", fault.Reg, 6)
	mustFail := func(t *testing.T, what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s was acknowledged over a failing file", what)
		}
	}
	must := func(t *testing.T, what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	// Before FileStore appended through jsonl.Log a short write left its
	// bytes in the file, and every later open failed at that line.
	t.Run("FileStore", func(t *testing.T) {
		last := underFaultyFiles(t)
		path := filepath.Join(t.TempDir(), "db.jsonl")
		st, err := campaign.OpenFileStore(path)
		must(t, "open", err)
		must(t, "Put a", st.Put(a))
		last().short = 9
		mustFail(t, "Put b on a short write", st.Put(b))
		must(t, "Put c", st.Put(c))
		last().syncErr = true
		mustFail(t, "Put d on an fsync error", st.Put(d))
		must(t, "Put b again: it never made the index", st.Put(b))
		must(t, "close", st.Close())
		if got, _ := os.ReadFile(path); string(got) != rowLine(a)+rowLine(c)+rowLine(b) {
			t.Errorf("database holds\n%s\nwant rows a, c, b", got)
		}
		re, err := campaign.OpenFileStore(path)
		must(t, "reopen", err)
		defer re.Close()
		if got, want := re.Keys(), []string{c.Key(), a.Key(), b.Key()}; !reflect.DeepEqual(got, want) {
			t.Errorf("reopened keys %v, want %v", got, want)
		}
	})

	// Before the segments appended through jsonl.Log a failed fsync left the
	// row's bytes in the O_APPEND file without advancing the store's idea of
	// its length: the next Put was indexed, and sealed into the footer, at
	// the failed row's offset, and after a reopen Get(c) decoded b's row.
	t.Run("SegmentedStore", func(t *testing.T) {
		last := underFaultyFiles(t)
		root := filepath.Join(t.TempDir(), "segs")
		rowLen := int64(len(rowLine(a)))
		st, err := campaign.OpenSegmentedStore(root, campaign.SegmentBytes(3*rowLen+1))
		must(t, "open", err)
		alice := st.Tenant("alice")
		del := alice.(interface{ Delete(string) error }).Delete
		must(t, "Put a", alice.Put(a))
		last().syncErr = true
		mustFail(t, "Put b on an fsync error", alice.Put(b))
		must(t, "Put c", alice.Put(c))
		last().short = 7
		mustFail(t, "Put d on a short write", alice.Put(d))
		must(t, "Put e", alice.Put(e))
		last().syncErr = true
		mustFail(t, "Delete a on an fsync error", del(a.Key()))
		must(t, "Delete c", del(c.Key()))
		must(t, "Put f, which seals the first segment", alice.Put(f))
		if n := st.Segments("alice"); n != 2 {
			t.Fatalf("%d segments, want the sealed one and f's", n)
		}
		want := map[string]string{a.Key(): rowLine(a), e.Key(): rowLine(e), f.Key(): rowLine(f)}
		check := func(what string, st *campaign.SegmentedStore) {
			t.Helper()
			alice := st.Tenant("alice")
			if got := alice.Keys(); len(got) != len(want) {
				t.Errorf("%s: keys %v, want those of a, e, f", what, got)
			}
			for key, row := range want {
				if r, ok := alice.Get(key); !ok || rowLine(r) != row {
					t.Errorf("%s: Get(%s) = %v, %v: not the row of its own key", what, key, r, ok)
				}
			}
		}
		check("before the close", st)
		must(t, "close", st.Close())

		// The sealed segment is the acknowledged lines and a footer that
		// maps each live key to the offset of its own row.
		tomb, _ := json.Marshal(map[string]string{"del": c.Key()})
		lines := rowLine(a) + rowLine(c) + rowLine(e) + string(tomb) + "\n"
		foot, _ := json.Marshal(struct {
			Footer int              `json:"footer"`
			Live   map[string]int64 `json:"live"`
			Dead   []string         `json:"dead"`
		}{1, map[string]int64{a.Key(): 0, e.Key(): 2 * rowLen}, []string{c.Key()}})
		if got, _ := os.ReadFile(filepath.Join(root, "t-alice", "seg-000001.jsonl")); string(got) != lines+string(foot)+"\n" {
			t.Errorf("sealed segment holds\n%s\nwant\n%s%s", got, lines, foot)
		}

		re, err := campaign.OpenSegmentedStore(root)
		must(t, "reopen", err)
		check("reopened, cache cold", re)
		must(t, "Compact", re.Compact("alice"))
		check("after Compact", re)
		must(t, "close", re.Close())
		re, err = campaign.OpenSegmentedStore(root)
		must(t, "reopen after Compact", err)
		check("reopened after Compact", re)
		must(t, "close", re.Close())
	})
}

// TestCompactionCrashReopensToPreCrashKeys: a merge stopped before any of
// its unlinks, after each of them, or after its rename — a crash part-way —
// reopens to exactly the keys the store held before it, as does the merge
// that finishes. K's row sits in the lowest segment and its tombstone in the
// highest, which the merge writes its result over. When the merged file was
// renamed in first, a crash before the unlinks brought K back: its row
// outlived the tombstone the merge had dropped.
func TestCompactionCrashReopensToPreCrashKeys(t *testing.T) {
	k, x := segResult("IS", fault.Reg, 4), segResult("MG", fault.Mem, 5)
	crash := errors.New("crash")
	for steps, finished := 0, false; !finished; steps++ {
		root := filepath.Join(t.TempDir(), "segs")
		st, err := campaign.OpenSegmentedStore(root, campaign.SegmentBytes(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(k); err != nil {
			t.Fatal(err)
		}
		if err := st.Put(x); err != nil {
			t.Fatal(err)
		}
		if err := st.Delete(k.Key()); err != nil {
			t.Fatal(err)
		}
		taken := 0
		step := func() error {
			if taken == steps {
				return crash
			}
			taken++
			return nil
		}
		restore := campaign.SetMergeOps(
			func(path string) error {
				if err := step(); err != nil {
					return err
				}
				return os.Remove(path)
			},
			func(from, to string) error {
				if err := step(); err != nil {
					return err
				}
				return os.Rename(from, to)
			})
		err = st.Compact("")
		restore()
		if finished = err == nil; !finished && !errors.Is(err, crash) {
			t.Fatalf("stopped after %d steps: Compact: %v", steps, err)
		}
		st.Close() // the merge holds no active segment: Close writes nothing

		for _, what := range []string{"the reopen", "a second reopen"} {
			re, err := campaign.OpenSegmentedStore(root)
			if err != nil {
				t.Fatalf("stopped after %d steps: %s: %v", steps, what, err)
			}
			if got := re.Keys(); !reflect.DeepEqual(got, []string{x.Key()}) {
				t.Errorf("stopped after %d steps: %s lists %v, want only %s", steps, what, got, x.Key())
			}
			if r, ok := re.Get(x.Key()); !ok || rowLine(r) != rowLine(x) {
				t.Errorf("stopped after %d steps: %s: Get(%s) = %v, %v", steps, what, x.Key(), r, ok)
			}
			if n := re.Segments(""); n != 1 {
				t.Errorf("stopped after %d steps: %s: %d segments, want the merged one", steps, what, n)
			}
			re.Close()
		}
		if tmps, _ := filepath.Glob(filepath.Join(root, "default", "*.tmp")); len(tmps) != 0 {
			t.Errorf("stopped after %d steps: left %v behind", steps, tmps)
		}
	}
}

// TestTornMergeTmpIsNotASegment: the .tmp of a merge that died before its
// footer is not a segment. The reopen drops it, keeps the keys of the real
// segments, and the next row lands in a real segment. The open used to read
// seg-000002.jsonl.tmp as segment 2 and append the next Put to it.
func TestTornMergeTmpIsNotASegment(t *testing.T) {
	root := filepath.Join(t.TempDir(), "segs")
	a, b, c := segResult("IS", fault.Reg, 4), segResult("MG", fault.Mem, 5), segResult("EP", fault.Reg, 6)
	st, err := campaign.OpenSegmentedStore(root, campaign.SegmentBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*campaign.Result{a, b} {
		if err := st.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "default")
	tmp := filepath.Join(dir, "seg-000002.jsonl.tmp")
	torn := rowLine(a) + rowLine(b)[:20]
	if err := os.WriteFile(tmp, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := campaign.OpenSegmentedStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the torn .tmp survived the reopen: %v", err)
	}
	if n := re.Segments(""); n != 2 {
		t.Errorf("%d segments, want seg-000001 and seg-000002", n)
	}
	if got, want := re.Keys(), []string{a.Key(), b.Key()}; !reflect.DeepEqual(got, want) {
		t.Errorf("keys %v, want %v", got, want)
	}
	if err := re.Put(c); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "seg-000002.jsonl")); string(got) != rowLine(b)+rowLine(c) {
		t.Errorf("seg-000002.jsonl holds\n%s\nwant b's row and then c's", got)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the next Put recreated the .tmp: %v", err)
	}
}
