package campaign_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/fault"
)

// rowLine is r as the stores write it: one canonical JSONL line.
func rowLine(r *campaign.Result) string {
	var buf bytes.Buffer
	_ = campaign.WriteDB(&buf, []*campaign.Result{r}) // a bytes.Buffer takes every write
	return buf.String()
}

// TestSegStoreReadsSurviveMerges: a Get or Query of a row that is never
// deleted returns it, byte for byte, however many merges replace the
// segment it lives in while the read is under way. Each round reopens the
// store so the first read of every key goes to disk. When the read path
// looked a row's place up, dropped the lock and then opened the segment by
// path, a merge in between unlinked that file (or renamed a new one to its
// path) and the live row was reported missing. That takes a reader that
// loses the processor right after it unlocks, so spinning goroutines keep
// every processor contended.
func TestSegStoreReadsSurviveMerges(t *testing.T) {
	dir := t.TempDir() + "/segs"
	opts := []campaign.SegStoreOption{campaign.SegmentBytes(256), campaign.CompactAfter(2)}
	st, err := campaign.OpenSegmentedStore(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{} // the rows nobody deletes
	for _, d := range []fault.Model{fault.Reg, fault.Mem, fault.IMem, fault.Burst} {
		for _, app := range []string{"CG", "FT", "BT", "LU", "IS", "MG"} {
			r := segResult(app, d, 4)
			if err := st.Put(r); err != nil {
				t.Fatal(err)
			}
			if app != "IS" && app != "MG" {
				want[r.Key()] = rowLine(r)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	rounds := 600
	if testing.Short() {
		rounds = 150
	}
	spin := make(chan struct{})
	defer close(spin)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		go func() {
			for {
				select {
				case <-spin:
					return
				default:
				}
				for t0 := time.Now(); time.Since(t0) < 500*time.Microsecond; {
				}
				runtime.Gosched()
			}
		}()
	}
	for round := 0; round < rounds && !t.Failed(); round++ {
		st, err := campaign.OpenSegmentedStore(dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var writer, readers sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			for n := 0; ; n++ {
				for _, app := range []string{"IS", "MG"} {
					select {
					case <-stop:
						return
					default:
					}
					r := segResult(app, fault.Reg, 5+n%3)
					if err := st.Delete(r.Key()); err != nil {
						t.Error(err)
						return
					}
					if err := st.Put(r); err != nil {
						t.Error(err)
						return
					}
					if err := st.Compact(""); err != nil {
						t.Error(err)
						return
					}
					runtime.Gosched() // let the readers at the lock between merges
				}
			}
		}()
		for g := 0; g < 4; g++ {
			readers.Add(1)
			go func(g int) {
				defer readers.Done()
				if g == 3 {
					got := map[string]string{}
					for _, r := range st.Query(campaign.Query{Apps: []string{"CG", "FT", "BT", "LU"}}) {
						got[r.Key()] = rowLine(r)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("round %d: Query returned %d of %d live rows intact", round, len(got), len(want))
					}
					return
				}
				for i := 0; i < 2; i++ {
					k := keys[(i+g*5)%len(keys)]
					r, ok := st.Get(k)
					if !ok {
						t.Errorf("round %d: Get(%q) reports a live row missing", round, k)
					} else if rowLine(r) != want[k] {
						t.Errorf("round %d: Get(%q) returned another row: %s", round, k, rowLine(r))
					}
				}
			}(g)
		}
		readers.Wait()
		close(stop)
		writer.Wait()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactBytesUnchanged pins the merged segment byte for byte: the live
// rows' stored lines, verbatim, in sorted key order, then the footer mapping
// each key to its line's offset — built here from the source segments
// themselves, replayed in id order — under the highest source id. A reopened
// store indexes the merged file (from that footer) to the same rows.
func TestCompactBytesUnchanged(t *testing.T) {
	st, dir := openSeg(t, campaign.SegmentBytes(256))
	apps := []string{"IS", "MG", "EP", "CG", "FT", "BT", "LU", "SP"}
	for _, app := range apps {
		for _, d := range []fault.Model{fault.Reg, fault.Mem} {
			if err := st.Put(segResult(app, d, 2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, app := range apps[:3] { // overwrites
		if err := st.Delete(segResult(app, fault.Mem, 0).Key()); err != nil {
			t.Fatal(err)
		}
		if err := st.Put(segResult(app, fault.Mem, 9)); err != nil {
			t.Fatal(err)
		}
	}
	for _, app := range apps[5:] { // deletes
		if err := st.Delete(segResult(app, fault.Reg, 0).Key()); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.Segments(""); n < 3 {
		t.Fatalf("%d segments before the merge, want at least 3", n)
	}

	part := filepath.Join(dir, "default")
	sources, _ := filepath.Glob(filepath.Join(part, "seg-*.jsonl"))
	sort.Strings(sources)
	live := map[string]string{} // key -> stored line
	from := map[string]string{} // key -> the segment holding that line
	for _, path := range sources {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ln := range strings.SplitAfter(string(data), "\n") {
			var tomb struct{ Del string }
			switch {
			case ln == "" || strings.HasPrefix(ln, `{"footer"`):
			case json.Unmarshal([]byte(ln), &tomb) == nil && tomb.Del != "":
				delete(live, tomb.Del)
			default:
				row, err := campaign.ReadDB(strings.NewReader(ln))
				if err != nil || len(row) != 1 {
					t.Fatalf("%s: line %q: %v", path, ln, err)
				}
				for k := range row {
					live[k], from[k] = ln, path
				}
			}
		}
	}
	keys := st.Keys()
	holding := map[string]bool{}
	for k := range live {
		holding[from[k]] = true
	}
	if len(keys) != len(live) || len(holding) < 3 {
		t.Fatalf("store lists %d keys, %d segments replay to %d live rows in %d of them", len(keys), len(sources), len(live), len(holding))
	}
	var want bytes.Buffer
	offsets := map[string]int64{}
	for _, k := range keys {
		offsets[k] = int64(want.Len())
		want.WriteString(live[k])
	}
	footer, err := json.Marshal(map[string]any{"footer": 1, "live": offsets})
	if err != nil {
		t.Fatal(err)
	}
	want.Write(append(footer, '\n'))

	if err := st.Compact(""); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(part, "*"))
	if !reflect.DeepEqual(after, sources[len(sources)-1:]) {
		t.Fatalf("partition after the merge holds %v, want only %s", after, sources[len(sources)-1])
	}
	got, err := os.ReadFile(after[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("merged segment:\n%s\nwant:\n%s", got, want.Bytes())
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := campaign.OpenSegmentedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !reflect.DeepEqual(re.Keys(), keys) {
		t.Fatalf("reopened keys %v, want %v", re.Keys(), keys)
	}
	for _, r := range re.Query(campaign.Query{}) {
		if rowLine(r) != live[r.Key()] {
			t.Errorf("reopened row %s = %s, stored %s", r.Key(), rowLine(r), live[r.Key()])
		}
	}
}
