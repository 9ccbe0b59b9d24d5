package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
)

// partRow is a small distinct row per app.
func partRow(app string, faults int) *Result {
	r := &Result{Scenario: npb.Scenario{App: app, Mode: npb.Serial, ISA: "armv8", Cores: 1}, Domain: fault.Reg, Faults: faults, Seed: 5}
	r.Counts[fi.Vanished] = faults
	return r
}

// TestTenantPartitionsDoNotBlockEachOther: with tenant a's partition held
// (standing in for an fsync or a merge in progress there), every operation
// on tenant b and the tenant listing complete, and Close waits for a. Before
// partitions had their own mutex there was nothing to hold but the store's
// one lock, and holding that stops tenant b, so this test has no passing
// form there.
func TestTenantPartitionsDoNotBlockEachOther(t *testing.T) {
	st, err := OpenSegmentedStore(t.TempDir() + "/segs")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a, b := st.Tenant("a"), st.Tenant("b")
	for _, v := range []Store{a, b} {
		if err := v.Put(partRow("IS", 2)); err != nil {
			t.Fatal(err)
		}
	}
	busy := st.partition("a")
	busy.mu.Lock()

	onB := make(chan error, 1)
	go func() {
		key := partRow("IS", 2).Key()
		if err := b.Put(partRow("MG", 2)); err != nil {
			onB <- err
			return
		}
		_, ok := b.Get(key)
		rows, keys := len(b.Query(Query{})), len(b.Keys())
		err := b.(*segTenantView).Delete(key)
		if names := st.TenantNames(); err != nil || !ok || rows != 2 || keys != 2 || !reflect.DeepEqual(names, []string{"a", "b"}) {
			err = fmt.Errorf("tenant b: Get %v, Query %d rows, %d keys, Delete %v, tenants %v", ok, rows, keys, err, names)
		}
		onB <- err
	}()
	select {
	case err := <-onB:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("tenant b is stuck behind tenant a's partition")
	}

	closed := make(chan error, 1)
	go func() { closed <- st.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while tenant a's partition was busy")
	case <-time.After(100 * time.Millisecond):
	}
	busy.mu.Unlock()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
	if err := a.Put(partRow("MG", 2)); err == nil {
		t.Error("Put on a closed store succeeded")
	}
}

// TestQueuedCompactionRechecksThreshold: every write past the CompactAfter
// threshold queues a pass, and only the first of them may rewrite the
// partition — the rest find the garbage gone. The compactor is parked on a
// partition the test holds while the writes queue eight passes behind it;
// once the first merge is seen, a hard link pins the merged file's inode, so
// any later rewrite (a new file renamed to the same path) shows as a
// different file. A loop that runs every queued pass rewrites seven more
// times.
func TestQueuedCompactionRechecksThreshold(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegmentedStore(dir+"/segs", SegmentBytes(128), CompactAfter(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	park, err := st.writable("park")
	if err != nil {
		t.Fatal(err)
	}
	st.compactQ <- "park"

	a := st.Tenant("a")
	for _, app := range []string{"IS", "MG", "EP", "CG"} {
		if err := a.Put(partRow(app, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := a.(*segTenantView).Delete(partRow("IS", 0).Key()); err != nil {
			t.Fatal(err)
		}
		if err := a.Put(partRow("IS", 3+i)); err != nil {
			t.Fatal(err)
		}
	}
	if queued := len(st.compactQ); queued < 3 {
		t.Fatalf("%d passes queued behind the parked compactor, want several", queued)
	}
	if n := st.Segments("a"); n < 2 {
		t.Fatalf("%d segments before the merge, want several", n)
	}
	park.mu.Unlock()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("the first merge", func() bool { return st.Garbage("a") == 0 })
	files, _ := filepath.Glob(filepath.Join(dir, "segs", "t-a", "seg-*.jsonl"))
	if len(files) != 1 {
		t.Fatalf("segment files after the merge: %v", files)
	}
	pin := filepath.Join(dir, "pin")
	if err := os.Link(files[0], pin); err != nil {
		t.Fatal(err)
	}
	// The loop takes a pass off the queue only after finishing the one
	// before, and Close waits for the last.
	waitFor("the queue to drain", func() bool { return len(st.compactQ) == 0 })
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	merged, err1 := os.Stat(files[0])
	pinned, err2 := os.Stat(pin)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !os.SameFile(merged, pinned) {
		t.Error("a queued pass rewrote a partition that had no garbage left")
	}
	if r, ok := a.Get(partRow("IS", 0).Key()); !ok || r.Faults != 7 {
		t.Errorf("row after the merge = %+v %v", r, ok)
	}
}
