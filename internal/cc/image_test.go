package cc

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"serfi/internal/isa/armv8"
	"serfi/internal/mach"
	"serfi/internal/mem"
	"serfi/internal/obs"
)

// linkSmall links the bare test kernel and a main that stores into a user
// global, for a machine of machineFor's RAM size.
func linkSmall(t *testing.T) *Image {
	t.Helper()
	p := NewProgram("user")
	p.GlobalInitWords("counter", 5)
	f := p.Func("main")
	f.Store(G("counter"), Add(Load(G("counter")), I(1)))
	f.Ret(Load(G("counter")))
	lcfg := DefaultLinkConfig()
	lcfg.RAMBytes = 4 << 20
	lcfg.StackRegion = 1 << 20
	img, err := Link(armv8.New(), []*Program{testKernel()}, []*Program{p}, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// unshared lists the start offsets of the pages at which a and b hold
// different slices.
func unshared(a, b *mem.Memory) []uint32 {
	var out []uint32
	for off := uint64(0); off < uint64(a.Size()); off += mem.PageBytes {
		if &a.PageAt(uint32(off))[0] != &b.PageAt(uint32(off))[0] {
			out = append(out, uint32(off))
		}
	}
	return out
}

// TestInstallSharesImagePages: machines installed from one image share every
// page neither has written, by slice identity. A guest that stores leaves
// the other machine, a later install and the image as they were, and an
// install into a machine of another RAM size panics, naming both sizes.
func TestInstallSharesImagePages(t *testing.T) {
	img := linkSmall(t)
	cfg := machineFor(armv8.New())
	a, b := mach.New(cfg), mach.New(cfg)
	img.InstallTo(a)
	img.InstallTo(b)
	if d := unshared(a.Mem, b.Mem); len(d) != 0 {
		t.Fatalf("two fresh installs hold their own pages at %#x", d)
	}
	boot := a.Mem.ReadBytes(0, a.Mem.Size())
	if a.Mem.ReadU32(img.Entry) == 0 {
		t.Fatal("the installed RAM holds no code at the entry")
	}

	if r := a.Run(1_000_000); r != mach.StopHalted {
		t.Fatalf("machine stopped: %v", r)
	}
	if v, _ := img.WordAt(a, "counter", 0); v != 6 {
		t.Fatalf("counter = %d after the run, want 6", v)
	}
	c := mach.New(cfg)
	img.InstallTo(c)
	for name, m := range map[string]*mach.Machine{"the other machine": b, "a later install": c} {
		if !bytes.Equal(m.Mem.ReadBytes(0, m.Mem.Size()), boot) {
			t.Errorf("a store in one machine reached %s", name)
		}
	}
	if d := unshared(b.Mem, c.Mem); len(d) != 0 {
		t.Errorf("an unwritten machine and a later install hold their own pages at %#x", d)
	}
	counter := img.Symbols["counter"].Addr &^ (mem.PageBytes - 1)
	written := unshared(a.Mem, c.Mem)
	if !slices.Contains(written, counter) || len(written) > 3 {
		t.Errorf("the run unshared pages %#x, want the counter's page %#x and at most the stacks beside it", written, counter)
	}

	big := cfg
	big.RAMBytes = 8 << 20
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "0x400000") || !strings.Contains(msg, "0x800000") {
			t.Errorf("an install across RAM sizes panicked with %q, want both sizes named", msg)
		}
	}()
	img.InstallTo(mach.New(big))
}

// TestLinkAndInstallMoveNoSnapshotCounters: linking an image and installing
// it are neither a snapshot nor a restore, so the four families the
// benchmark reads as mem.snapshot_pages and mem.restore_pages (and their
// operation counts) do not move.
func TestLinkAndInstallMoveNoSnapshotCounters(t *testing.T) {
	families := []string{"serfi_mem_snapshots_total", "serfi_mem_snapshot_pages_total", "serfi_mem_restores_total", "serfi_mem_restore_pages_total"}
	read := func() map[string]float64 {
		out := make(map[string]float64)
		for _, f := range obs.Default.Snapshot() {
			for _, s := range f.Series {
				out[f.Name] += s.Value
			}
		}
		return out
	}
	before := read()
	for _, name := range families {
		if _, ok := before[name]; !ok {
			t.Fatalf("no %s in the exposition", name)
		}
	}
	img := linkSmall(t)
	for range 3 {
		img.InstallTo(mach.New(machineFor(armv8.New())))
	}
	after := read()
	for _, name := range families {
		if after[name] != before[name] {
			t.Errorf("%s moved %v -> %v on a link and three installs", name, before[name], after[name])
		}
	}
}
