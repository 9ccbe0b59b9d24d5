package jsonl_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"serfi/internal/jsonl"
)

// lines scans data and returns what fn was handed, and Scan's own results.
func lines(t testing.TB, data []byte) (offs []int64, got []string, valid int64, tail []byte) {
	t.Helper()
	valid, tail, err := jsonl.Scan(bytes.NewReader(data), func(off int64, line []byte) error {
		offs, got = append(offs, off), append(got, string(line))
		return nil
	})
	if err != nil {
		t.Fatalf("Scan(%q): %v", data, err)
	}
	return offs, got, valid, tail
}

func TestScan(t *testing.T) {
	offs, got, valid, tail := lines(t, []byte("{\"a\":1}\n\n{\"b\":2}\r\n{\"c\":"))
	if !reflect.DeepEqual(got, []string{`{"a":1}`, ``, "{\"b\":2}\r"}) || !reflect.DeepEqual(offs, []int64{0, 8, 9}) {
		t.Errorf("lines %q at %v", got, offs)
	}
	if valid != 18 || string(tail) != `{"c":` {
		t.Errorf("valid %d tail %q, want 18 and the unterminated line", valid, tail)
	}
	// No line cap: a line far past any buffer comes back whole.
	long := strings.Repeat("x", 3<<20)
	if _, got, valid, tail = lines(t, []byte(long+"\n")); len(got) != 1 || got[0] != long || valid != int64(len(long))+1 || len(tail) != 0 {
		t.Errorf("3 MiB line: %d lines, valid %d, tail %d bytes", len(got), valid, len(tail))
	}
	// fn's error stops the scan at the line it refused.
	boom := errors.New("boom")
	valid, _, err := jsonl.Scan(strings.NewReader("a\nb\nc\n"), func(_ int64, line []byte) error {
		if string(line) == "b" {
			return boom
		}
		return nil
	})
	if err != boom || valid != 2 {
		t.Errorf("refused line: valid %d err %v, want 2 and fn's error", valid, err)
	}
}

// faultyFile is an append-mode file whose next Write, Sync or Truncate fails
// once, as set; everything else goes through.
type faultyFile struct {
	*os.File
	short              int // >= 0: the next Write lands this many bytes, then ENOSPC
	syncErr, truncErr  bool
	writes, syncs, cut int // calls seen
}

func (f *faultyFile) Write(b []byte) (int, error) {
	f.writes++
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

func (f *faultyFile) Truncate(n int64) error {
	f.cut++
	if f.truncErr {
		f.truncErr = false
		return syscall.EIO
	}
	return f.File.Truncate(n)
}

func openFaulty(t *testing.T, path string) *faultyFile {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return &faultyFile{File: f, short: -1}
}

func fileIs(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("file holds %q, want %q", got, want)
	}
}

// TestLogFailedAppendLeavesNoBytes: a short write of any length, or a Sync
// error after a whole write, leaves the file where the last acknowledged line
// ended, and the next append lands there at the offset it reports.
func TestLogFailedAppendLeavesNoBytes(t *testing.T) {
	const line = `{"k":"second"}`
	for k := -1; k <= len(line)+1; k++ { // -1: the write lands, the fsync fails
		path := filepath.Join(t.TempDir(), "log.jsonl")
		f := openFaulty(t, path)
		l := jsonl.New(f, 0)
		if off, err := l.Append([]byte(`{"k":"first"}`)); err != nil || off != 0 {
			t.Fatalf("k=%d: first append: off %d, %v", k, off, err)
		}
		f.short, f.syncErr = k, k < 0
		if _, err := l.Append([]byte(line)); err == nil {
			t.Fatalf("k=%d: failed append acknowledged", k)
		}
		fileIs(t, path, "{\"k\":\"first\"}\n")
		if l.Len() != 14 {
			t.Errorf("k=%d: Len %d after a failed append, want 14", k, l.Len())
		}
		if off, err := l.Append([]byte(`{"k":"third"}`)); err != nil || off != 14 {
			t.Errorf("k=%d: append after the failure: off %d, %v", k, off, err)
		}
		fileIs(t, path, "{\"k\":\"first\"}\n{\"k\":\"third\"}\n")
	}
}

// TestLogCallsPerAppend: an acknowledged line is one Write and one Sync.
func TestLogCallsPerAppend(t *testing.T) {
	f := openFaulty(t, filepath.Join(t.TempDir(), "log.jsonl"))
	l := jsonl.New(f, 0)
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if f.writes != 3 || f.syncs != 3 || f.cut != 0 {
		t.Errorf("3 appends made %d writes, %d syncs, %d truncates", f.writes, f.syncs, f.cut)
	}
}

// TestLogRefusesAppendsOnceTailUnknown: when the truncate that undoes a
// failed append fails too, nobody knows where the file ends, and the log
// takes no more lines.
func TestLogRefusesAppendsOnceTailUnknown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	f := openFaulty(t, path)
	l := jsonl.New(f, 0)
	f.short, f.truncErr = 3, true
	if _, err := l.Append([]byte(`{"k":1}`)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("failed append: %v, want ENOSPC", err)
	}
	if _, err := l.Append([]byte(`{"k":2}`)); err == nil || !strings.Contains(err.Error(), "tail unknown") {
		t.Errorf("append on a log with an unknown tail: %v", err)
	}
	if f.writes != 1 {
		t.Errorf("%d writes, want the first one only", f.writes)
	}
}

// TestOpenCutsBackToAcceptedPrefix: Open at the length Scan accepted drops
// whatever follows it, including when nothing was accepted.
func TestOpenCutsBackToAcceptedPrefix(t *testing.T) {
	for _, content := range []string{"", "{\"a\":1}\n", "{\"a\":1}\n{\"b\":", "{\"a\":"} {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, valid, _ := lines(t, []byte(content))
		l, err := jsonl.Open(path, valid)
		if err != nil {
			t.Fatal(err)
		}
		fileIs(t, path, content[:valid])
		if off, err := l.Append([]byte(`{"z":9}`)); err != nil || off != valid {
			t.Errorf("%q: append at %d, %v; want %d", content, off, err, valid)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		fileIs(t, path, content[:valid]+"{\"z\":9}\n")
	}
	// Only an empty log is created: a file that held 8 bytes a moment ago
	// and is gone is an error, not 8 zero bytes.
	if _, err := jsonl.Open(filepath.Join(t.TempDir(), "gone.jsonl"), 8); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Open of a missing file at 8 bytes: %v, want not-exist", err)
	}
}

// FuzzScan: Scan splits any bytes into whole lines and a tail without losing
// or inventing one, and a log opened at the accepted length appends right
// after the last whole line.
func FuzzScan(f *testing.F) {
	for _, seed := range []string{
		// what the tree writes: a row without runs, a row with them, a
		// tombstone, a segment footer, a journal line
		`{"v":4,"scenario":"armv8/IS/SER-1","domain":"mem","faults":2,"seed":2088,"counts":{"hang":0,"omm":0,"ona":2,"ut":0,"vanished":0},"golden":{"AppStart":2111,"AppEnd":2366640,"Retired":2366646,"Cycles":3259238},"features":{"api_window":0,"branch_pct":6.731678501981285,"branches":159315,"calls":3017,"ctx_switches":228,"cycles":3259238,"fb_index":480653355,"fp_pct":0,"idle_cycles":0,"imbalance":0,"instructions":2366646,"kernel_pct":2.843729057915717,"l1d_miss_pct":4.799304904663844,"l2_miss_pct":13.670796460176991,"mem_pct":13.623921786359261,"mispredicts":4396,"power_trans":0,"rdwr_ratio":1.7229963685499536},"api_calls":0}` + "\n",
		`{"v":4,"scenario":"armv8/IS/SER-1","domain":"reg","faults":2,"seed":2088,"counts":{"hang":0,"omm":0,"ona":2,"ut":0,"vanished":0},"golden":{"AppStart":2111,"AppEnd":2366640,"Retired":2366646,"Cycles":3259238},"features":{"api_window":0,"branch_pct":6.731678501981285,"branches":159315,"calls":3017,"ctx_switches":228,"cycles":3259238,"fb_index":480653355,"fp_pct":0,"idle_cycles":0,"imbalance":0,"instructions":2366646,"kernel_pct":2.843729057915717,"l1d_miss_pct":4.799304904663844,"l2_miss_pct":13.670796460176991,"mem_pct":13.623921786359261,"mispredicts":4396,"power_trans":0,"rdwr_ratio":1.7229963685499536},"api_calls":0,"runs":[{"i":1536899,"r":16,"b":48,"o":1},{"i":2339700,"r":26,"b":18,"o":1}]}` + "\n",
		`{"del":"armv8/IS/SER-1#mem"}` + "\n",
		`{"footer":1,"live":{"armv8/IS/SER-1":0},"dead":["armv8/MG/SER-1"]}` + "\n",
		`{"op":"submit","id":"m000001","tenant":"alice","faults":6,"jobs":[{"s":"armv8/IS/SER-1","d":"reg","seed":2088}]}` + "\n",
		"{\"a\":1}\n\n\r\n{\"torn\":",
		"no newline at all",
		"",
	} {
		f.Add([]byte(seed))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		_, got, valid, tail := lines(t, data)
		if valid+int64(len(tail)) != int64(len(data)) {
			t.Fatalf("valid %d + tail %d != %d bytes in", valid, len(tail), len(data))
		}
		if valid != 0 && data[valid-1] != '\n' {
			t.Fatalf("valid %d does not end on a newline", valid)
		}
		if bytes.IndexByte(tail, '\n') >= 0 {
			t.Fatalf("tail %q holds a whole line", tail)
		}
		_, again, v2, t2 := lines(t, data[:valid])
		if !reflect.DeepEqual(again, got) || v2 != valid || len(t2) != 0 {
			t.Fatalf("rescan of the accepted prefix: %q valid %d tail %q, first scan %q valid %d", again, v2, t2, got, valid)
		}
		path := filepath.Join(dir, "fuzz.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := jsonl.Open(path, valid)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if off, err := l.Append([]byte(`{"next":1}`)); err != nil || off != valid {
			t.Fatalf("append at %d, %v; want %d", off, err, valid)
		}
		fileIs(t, path, string(data[:valid])+"{\"next\":1}\n")
	})
}
