// Package mem provides the physical memory of a simulated machine plus the
// region/permission table that stands in for an MMU. There is no guest
// paging: the guest kernel and applications share one physical address
// space, and segmentation faults arise from region permission violations
// exactly as the paper's "access outside its permissions" UT mechanism
// requires. On the host side the address space is a table of PageBytes
// pages: a machine holds only the pages its guest wrote, and every page it
// never wrote is a view of one shared zero page that is never written.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
	"sort"
)

// Perm is a region permission bitmask.
type Perm uint8

// Permission bits. PermUser marks a region accessible from user mode;
// kernel mode may access every mapped region.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
	PermUser
)

// String renders the permission like "rwxu".
func (p Perm) String() string {
	b := []byte("----")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	if p&PermUser != 0 {
		b[3] = 'u'
	}
	return string(b)
}

// Region is a mapped address range [Start, End).
type Region struct {
	Name  string
	Start uint32
	End   uint32
	Perm  Perm
}

// Contains reports whether addr lies in the region.
func (r Region) Contains(addr uint32) bool { return addr >= r.Start && addr < r.End }

// Fault describes a rejected access.
type Fault struct {
	Addr  uint32
	Write bool
	Exec  bool
	User  bool
	What  string // "unmapped" or "perm"
}

// Error implements error.
func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	if f.Exec {
		kind = "exec"
	}
	mode := "kernel"
	if f.User {
		mode = "user"
	}
	return fmt.Sprintf("%s fault: %s %s at %#x", f.What, mode, kind, f.Addr)
}

// Memory is the physical RAM image plus its region table. Memory is not safe
// for concurrent use; each simulated machine owns one.
type Memory struct {
	// pages holds the image as one entry per PageBytes page, the final one
	// short when the size is not a page multiple. An entry the guest never
	// wrote is a view of the shared zeroPage; the first write to it
	// allocates a private page (writable). So a machine holds only the pages
	// its guest wrote, and reads need neither a nil check nor a branch.
	pages   [][]byte
	size    uint32
	regions []Region // sorted by Start
	// Two-entry locality cache over region lookups: data accesses
	// typically alternate between two regions (e.g. heap and stack), so a
	// single slot thrashes exactly on the hottest pattern.
	last, last2 int

	// Copy-on-write tracking. dirty holds one bit per PageBytes page, set by
	// every write accessor below. base is the snapshot this memory diverged
	// from: the invariant, kept continuously, is that the image matches
	// base's materialized contents at every page whose dirty bit is clear.
	// Snapshot, DeltaSnapshot and Restore re-anchor the pair; TakeDirtyPages
	// drops the base (nil base = no invariant, every compare/restore is full).
	dirty pageSet
	base  *Snapshot
}

// New returns size bytes of zeroed RAM with no mapped regions. No page is
// allocated until it is written.
func New(size uint32) *Memory {
	m := &Memory{}
	m.resize(size)
	return m
}

// resize points the image at size bytes of unwritten pages and sizes the
// dirty bitmap to match.
func (m *Memory) resize(size uint32) {
	m.size = size
	m.pages = make([][]byte, pageCount(size))
	for pn := range m.pages {
		m.dropPage(uint32(pn))
	}
	m.dirty = newPageSet(len(m.pages))
}

// Size returns the RAM size in bytes.
func (m *Memory) Size() uint32 { return m.size }

// Map adds a region. Regions must not overlap; Map panics on programmer
// error since the memory map is fixed at machine construction.
func (m *Memory) Map(r Region) {
	if r.End <= r.Start || r.End > m.Size() {
		panic(fmt.Sprintf("mem: bad region %s [%#x,%#x) for RAM size %#x", r.Name, r.Start, r.End, m.Size()))
	}
	for _, o := range m.regions {
		if r.Start < o.End && o.Start < r.End {
			panic(fmt.Sprintf("mem: region %s overlaps %s", r.Name, o.Name))
		}
	}
	m.regions = append(m.regions, r)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Start < m.regions[j].Start })
	m.last, m.last2 = 0, 0
}

// Regions returns the region table (shared slice; callers must not modify).
func (m *Memory) Regions() []Region { return m.regions }

// FindRegion returns the region containing addr, or nil.
func (m *Memory) FindRegion(addr uint32) *Region {
	if m.last < len(m.regions) && m.regions[m.last].Contains(addr) {
		return &m.regions[m.last]
	}
	if m.last2 < len(m.regions) && m.regions[m.last2].Contains(addr) {
		m.last, m.last2 = m.last2, m.last
		return &m.regions[m.last]
	}
	lo, hi := 0, len(m.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.regions[mid].Start > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return nil
	}
	if r := &m.regions[lo-1]; r.Contains(addr) {
		m.last, m.last2 = lo-1, m.last
		return r
	}
	return nil
}

// Check validates an access of size bytes at addr. user selects user-mode
// permission checking; want is the required permission (PermR, PermW or
// PermX). It returns nil when the access is allowed.
func (m *Memory) Check(addr uint32, size uint32, want Perm, user bool) *Fault {
	end := addr + size
	if end < addr || end > m.Size() {
		return &Fault{Addr: addr, Write: want == PermW, Exec: want == PermX, User: user, What: "unmapped"}
	}
	r := m.FindRegion(addr)
	if r == nil || end > r.End {
		return &Fault{Addr: addr, Write: want == PermW, Exec: want == PermX, User: user, What: "unmapped"}
	}
	if r.Perm&want == 0 || (user && r.Perm&PermUser == 0) {
		return &Fault{Addr: addr, Write: want == PermW, Exec: want == PermX, User: user, What: "perm"}
	}
	return nil
}

// The raw accessors below skip permission checks; they are used by the
// machine after Check, by loaders, and by the fault injector. Every mutation
// of RAM flows through them — that is what makes the dirty-page bitmap a
// complete record of divergence from the tracking base. An access at or past
// Size panics, as an index into a flat image would.

// PageBytes is the page granularity of RAM allocation, dirty-write tracking
// and snapshot capture. Small enough that a checkpoint delta and a machine
// pay for the pages written, not whole RAM images; large enough that the
// per-write bitmap update and the sparse page walk stay cheap.
const (
	PageBytes = 1 << 14
	pageShift = 14
	pageMask  = PageBytes - 1
)

// zeroPage backs every page no write has reached, in every memory. Nothing
// writes through it: the write accessors take the writable slow path, which
// swaps a private page in, wherever the page is still the zero page.
var zeroPage [PageBytes]byte

func pageCount(size uint32) int { return int((uint64(size) + PageBytes - 1) / PageBytes) }

// pageSet is a set of page numbers, one bit per page.
type pageSet []uint64

func newPageSet(pages int) pageSet   { return make(pageSet, (pages+63)/64) }
func (s pageSet) add(pn uint32)      { s[pn/64] |= 1 << (pn % 64) }
func (s pageSet) has(pn uint32) bool { return s[pn/64]&(1<<(pn%64)) != 0 }

// ReadU8 reads one byte.
func (m *Memory) ReadU8(addr uint32) uint8 { return m.pages[addr>>pageShift][addr&pageMask] }

// WriteU8 writes one byte.
func (m *Memory) WriteU8(addr uint32, v uint8) {
	pn := addr >> pageShift
	if !m.held(pn) {
		m.writeSlow(addr, 1, uint64(v))
		return
	}
	m.pages[pn][addr&pageMask] = v
	m.dirty.add(pn)
}

// ReadU32 reads a little-endian 32-bit value.
func (m *Memory) ReadU32(addr uint32) uint32 {
	if addr&pageMask > PageBytes-4 {
		return m.readStraddle32(addr)
	}
	return binary.LittleEndian.Uint32(m.pages[addr>>pageShift][addr&pageMask:])
}

// WriteU32 writes a little-endian 32-bit value.
func (m *Memory) WriteU32(addr uint32, v uint32) {
	pn := addr >> pageShift
	if addr&pageMask > PageBytes-4 || !m.held(pn) {
		m.writeSlow(addr, 4, uint64(v))
		return
	}
	binary.LittleEndian.PutUint32(m.pages[pn][addr&pageMask:], v)
	m.dirty.add(pn)
}

// ReadU64 reads a little-endian 64-bit value.
func (m *Memory) ReadU64(addr uint32) uint64 {
	if addr&pageMask > PageBytes-8 {
		return m.readStraddle64(addr)
	}
	return binary.LittleEndian.Uint64(m.pages[addr>>pageShift][addr&pageMask:])
}

// WriteU64 writes a little-endian 64-bit value.
func (m *Memory) WriteU64(addr uint32, v uint64) {
	pn := addr >> pageShift
	if addr&pageMask > PageBytes-8 || !m.held(pn) {
		m.writeSlow(addr, 8, v)
		return
	}
	binary.LittleEndian.PutUint64(m.pages[pn][addr&pageMask:], v)
	m.dirty.add(pn)
}

// readStraddle32 and readStraddle64 read a value that straddles a page
// boundary. They take the address alone and stay out of line, which keeps
// ReadU32 and ReadU64 within the compiler's inlining budget.
//
//go:noinline
func (m *Memory) readStraddle32(addr uint32) uint32 { return uint32(m.readSlow(addr, 4)) }

//go:noinline
func (m *Memory) readStraddle64(addr uint32) uint64 { return m.readSlow(addr, 8) }

// readSlow reads an n-byte little-endian value byte by byte.
func (m *Memory) readSlow(addr, n uint32) uint64 {
	m.checkRange(addr, n)
	var v uint64
	for i := n; i > 0; i-- {
		v = v<<8 | uint64(m.ReadU8(addr+i-1))
	}
	return v
}

// writeSlow writes an n-byte little-endian value byte by byte through
// writable: the first write to a page, and any write that straddles two,
// comes here, and every page it touches is allocated and marked dirty.
//
//go:noinline
func (m *Memory) writeSlow(addr, n uint32, v uint64) {
	m.checkRange(addr, n)
	for i := uint32(0); i < n; i++ {
		a := addr + i
		m.writable(a)[a&pageMask] = uint8(v >> (8 * i))
	}
}

// checkRange panics unless [addr, addr+n) lies inside RAM, so an access
// that runs past the end fails before it reads or writes any of its bytes.
func (m *Memory) checkRange(addr, n uint32) {
	if uint64(addr)+uint64(n) > uint64(m.size) {
		panic(fmt.Sprintf("mem: access [%#x,%#x) out of range for RAM size %#x", addr, uint64(addr)+uint64(n), m.size))
	}
}

// ReadBytes copies n bytes starting at addr.
func (m *Memory) ReadBytes(addr, n uint32) []byte {
	m.checkRange(addr, n)
	out := make([]byte, n)
	for done := uint32(0); done < n; {
		a := addr + done
		done += uint32(copy(out[done:], m.pages[a>>pageShift][a&pageMask:]))
	}
	return out
}

// WriteBytes copies b into RAM at addr, clamping at the end of RAM.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	m.checkRange(addr, 0)
	b = b[:min(uint64(len(b)), uint64(m.size-addr))]
	for len(b) > 0 {
		b = b[copy(m.writable(addr)[addr&pageMask:], b):]
		addr = (addr | pageMask) + 1
	}
}

// writable returns the page containing addr as a private page, allocating
// it on the first write, and marks it dirty. The caller writes into it.
func (m *Memory) writable(addr uint32) []byte {
	pn := addr >> pageShift
	if !m.held(pn) {
		m.pages[pn] = make([]byte, len(m.pages[pn]))
	}
	m.dirty.add(pn)
	return m.pages[pn]
}

// dropPage points page pn back at the shared zero page.
func (m *Memory) dropPage(pn uint32) {
	off := pn << pageShift
	m.pages[pn] = zeroPage[:pageEnd(off, m.size)-off]
}

// setPage makes page pn hold data, or all zeros when data is nil (the
// snapshot convention), dropping it back to the zero page then. The restores
// that call it rebase afterwards.
func (m *Memory) setPage(pn uint32, data []byte) {
	if data == nil {
		m.dropPage(pn)
		return
	}
	copy(m.writable(pn<<pageShift), data)
}

// held reports whether page pn has a private page, i.e. has been written
// since it was last dropped.
func (m *Memory) held(pn uint32) bool { return &m.pages[pn][0] != &zeroPage[0] }

// eachDirtyPage calls fn with the start offset of every dirty page, in
// ascending order.
func (m *Memory) eachDirtyPage(fn func(off uint32)) {
	for wi, w := range m.dirty {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			fn((uint32(wi)*64 + uint32(b)) << pageShift)
		}
	}
}

// TakeDirtyPages returns the start offsets of every dirty page in ascending
// order and clears the bitmap. Clearing the bits breaks the "RAM matches base
// at clear-dirty pages" invariant, so the tracking base is dropped with them:
// every later EqualsMemory or Restore on this memory takes the full path
// (Restore re-anchors) and DeltaSnapshot falls back to a full capture. It
// exists for the propagation tracer's twin machines, which use the bitmap
// purely as a write log between lockstep boundaries.
func (m *Memory) TakeDirtyPages() []uint32 {
	var out []uint32
	m.eachDirtyPage(func(off uint32) { out = append(out, off) })
	m.Rebase(nil)
	return out
}

// PageAt returns a read-only view of the page starting at off (the final
// page may be short; an unwritten page is the shared zero page). Callers must
// not modify the returned slice.
func (m *Memory) PageAt(off uint32) []byte { return m.pages[off>>pageShift] }

// pageEnd returns the end of the page starting at off in a memory of the
// given size (the final page may be short). Written as a subtraction so a
// page ending exactly at 1<<32 cannot overflow.
func pageEnd(off, size uint32) uint32 {
	if size-off < PageBytes {
		return size
	}
	return off + PageBytes
}

// isZero reports whether b is all zero. A view of the zero page is, without
// a scan.
func isZero(b []byte) bool {
	return len(b) == 0 || &b[0] == &zeroPage[0] || bytes.Equal(b, zeroPage[:len(b)])
}

// snapPage is one RAM page captured by a Snapshot: data carries the
// contents, or zero marks a page that is all-zero (meaningful in deltas,
// where the parent's page may not be).
type snapPage struct {
	off  uint32
	data []byte
	zero bool
}

// Snapshot is an immutable copy of the RAM contents and region table at one
// instant — either a full capture or a delta chained to a parent. It is safe
// to share across goroutines; Restore and EqualsMemory only read it.
type Snapshot struct {
	size    uint32
	pages   []snapPage // ascending by off
	regions []Region

	// Delta chain: parent is the snapshot whose materialized image this
	// one's pages patch (nil for a full capture); depth is the chain length
	// above the root, used to find common ancestors in O(depth).
	parent *Snapshot
	depth  int
}

// Parent returns the snapshot this delta patches, or nil for a full capture.
func (s *Snapshot) Parent() *Snapshot { return s.parent }

// Depth returns the delta-chain length above the root full capture (0 for a
// full capture).
func (s *Snapshot) Depth() int { return s.depth }

// Bytes returns the number of payload bytes the snapshot holds (test and
// telemetry helper; zero markers count nothing).
func (s *Snapshot) Bytes() int {
	n := 0
	for _, p := range s.pages {
		n += len(p.data)
	}
	return n
}

// ChainBytes returns the payload of the whole chain this snapshot restores
// through: its own pages plus every ancestor's.
func (s *Snapshot) ChainBytes() int {
	n := 0
	for c := s; c != nil; c = c.parent {
		n += c.Bytes()
	}
	return n
}

// findPage returns the snapshot's own entry for the page at off, or nil.
func (s *Snapshot) findPage(off uint32) *snapPage {
	lo, hi := 0, len(s.pages)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.pages[mid].off < off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.pages) && s.pages[lo].off == off {
		return &s.pages[lo]
	}
	return nil
}

// pageData returns the materialized contents of the page at off: the
// nearest chain entry holding the page wins, and absence all the way past
// the root means all-zero (nil return, matching the full capture's
// gap-means-zero convention). The returned slice is the chain's own page:
// callers must not modify it.
func (s *Snapshot) pageData(off uint32) []byte {
	for c := s; c != nil; c = c.parent {
		if p := c.findPage(off); p != nil {
			return p.data // nil for a zero marker
		}
	}
	return nil
}

// Snapshot captures the current RAM image and region table as a full copy
// (no parent) and re-anchors the memory's dirty tracking on it.
func (m *Memory) Snapshot() *Snapshot {
	s := &Snapshot{
		size:    m.Size(),
		regions: append([]Region(nil), m.regions...),
	}
	for pn, p := range m.pages {
		if isZero(p) { // an unwritten page without a scan
			continue
		}
		s.pages = append(s.pages, snapPage{off: uint32(pn) << pageShift, data: append([]byte(nil), p...)})
	}
	m.Rebase(s)
	obsSnapshotFull.Inc()
	obsSnapshotPagesFull.Add(float64(len(s.pages)))
	return s
}

// DeltaSnapshot captures the pages written since the memory's tracking base
// — the snapshot most recently captured from or restored into it — as a
// delta chained to that base, then re-anchors tracking on the result.
// Dirty pages whose contents still match the base are dropped; pages that
// became all-zero get explicit zero markers, because a delta cannot reuse
// the full capture's gap-means-zero convention. With no usable base the
// capture falls back to a full Snapshot. Restoring the delta is
// bit-identical to restoring a full capture of the same instant.
func (m *Memory) DeltaSnapshot() *Snapshot {
	if m.base == nil || m.base.size != m.Size() {
		return m.Snapshot()
	}
	s := &Snapshot{
		size:    m.Size(),
		regions: append([]Region(nil), m.regions...),
		parent:  m.base,
		depth:   m.base.depth + 1,
	}
	m.eachDirtyPage(func(off uint32) { s.patch(off, m.PageAt(off), false) })
	m.Rebase(s)
	obsSnapshotDelta.Inc()
	obsSnapshotPagesDelta.Add(float64(len(s.pages)))
	return s
}

// patch records the page at off in delta s if chunk differs from the
// parent's materialization (all-zero when s has no parent): nothing when
// equal, an explicit zero marker when the page became all-zero, otherwise
// chunk itself when it is immutable snapshot payload already (shared) and a
// private copy when it is live RAM.
func (s *Snapshot) patch(off uint32, chunk []byte, shared bool) {
	was := s.parent.pageData(off)
	switch {
	case was == nil && isZero(chunk), was != nil && bytes.Equal(chunk, was):
		// Still zero over a zero parent page, or the parent's contents again.
	case isZero(chunk):
		s.pages = append(s.pages, snapPage{off: off, zero: true})
	case shared:
		s.pages = append(s.pages, snapPage{off: off, data: chunk})
	default:
		s.pages = append(s.pages, snapPage{off: off, data: append([]byte(nil), chunk...)})
	}
}

// DeltaOf captures the current contents of another memory of the same size
// as a delta chained onto s, by comparing every page either side may hold
// data at: src's tracking state is neither trusted nor touched. This is how
// an image that was not produced by running forward from s (the golden run's
// terminal RAM) joins s's chain, so that memories tracking any snapshot of
// the chain compare against it selectively.
func (s *Snapshot) DeltaOf(src *Memory) *Snapshot {
	d := &Snapshot{size: s.size, regions: s.regions, parent: s, depth: s.depth + 1}
	s.eachHeldPage(src, func(off uint32) bool {
		d.patch(off, src.PageAt(off), false)
		return true
	})
	obsSnapshotDelta.Inc()
	obsSnapshotPagesDelta.Add(float64(len(d.pages)))
	return d
}

// Squash rebuilds a delta chain around the snapshots in keep — members of one
// chain in ascending order, each an ancestor of the next — and returns the
// new chain: out[i] materializes exactly like keep[i], out[0] is a full image
// and out[i] patches out[i-1]. The deltas of the members left out are folded
// into the next kept one: the latest write to a page wins, a page that is
// back to the kept predecessor's contents is dropped, and a zero marker
// survives only over a page that predecessor holds. Page payloads are shared
// with the input chain, which is not modified (snapshots stay immutable), and
// a snapshot already chained the way the result needs it is reused as is, so
// squashing a chain around all of its members returns them.
func Squash(keep []*Snapshot) []*Snapshot {
	out := make([]*Snapshot, len(keep))
	for i, k := range keep {
		var anc, parent *Snapshot
		if i > 0 {
			anc, parent = keep[i-1], out[i-1]
		}
		if k.parent == anc && parent == anc {
			out[i] = k
			continue
		}
		s := &Snapshot{size: k.size, regions: k.regions, parent: parent}
		if parent != nil {
			s.depth = parent.depth + 1
		}
		// Nearest delta first: the first entry met for a page is the one k
		// materializes.
		var pages []snapPage
		seen := make(map[uint32]struct{})
		for c := k; c != anc; c = c.parent {
			if c == nil {
				panic("mem: Squash: keep is not an ascending chain")
			}
			for _, p := range c.pages {
				if _, dup := seen[p.off]; !dup {
					seen[p.off] = struct{}{}
					pages = append(pages, p)
				}
			}
		}
		sort.Slice(pages, func(a, b int) bool { return pages[a].off < pages[b].off })
		for _, p := range pages {
			s.patch(p.off, p.data, true) // nil data is a zero marker: an all-zero page
		}
		out[i] = s
	}
	return out
}

// Rebase re-anchors dirty tracking on s and clears the dirty bitmap: the
// caller asserts that RAM equals s's materialization at this instant. Nil
// switches tracking off. Snapshot, DeltaSnapshot and Restore rebase by
// themselves; the exported form is for a holder that has replaced the chain
// under the tracking base with an equivalent one (Squash).
func (m *Memory) Rebase(s *Snapshot) {
	m.base = s
	clear(m.dirty)
}

// eachHeldPage calls fn, in ascending order until fn returns false, with the
// offset of every page that m holds or that a snapshot on s's chain records,
// and reports whether it ran to the end. Every other page is zero on both
// sides.
func (s *Snapshot) eachHeldPage(m *Memory, fn func(off uint32) bool) bool {
	onChain := newPageSet(len(m.pages))
	for c := s; c != nil; c = c.parent {
		for _, p := range c.pages {
			onChain.add(p.off >> pageShift)
		}
	}
	for pn := range m.pages {
		if (m.held(uint32(pn)) || onChain.has(uint32(pn))) && !fn(uint32(pn)<<pageShift) {
			return false
		}
	}
	return true
}

// Base returns the tracking base, nil when there is none. Restore and
// EqualsMemory are selective exactly when it shares a chain with their
// argument.
func (m *Memory) Base() *Snapshot { return m.base }

// commonAncestor returns the deepest snapshot present on both chains, or
// nil when the chains share no root (snapshots of unrelated memories).
func commonAncestor(a, b *Snapshot) *Snapshot {
	for a != nil && b != nil && a != b {
		if a.depth >= b.depth {
			a = a.parent
		} else {
			b = b.parent
		}
	}
	if a == b {
		return a
	}
	return nil
}

// diffPages collects the page offsets at which m's RAM may differ from
// target's materialization: m's dirty pages plus every page recorded on the
// chain paths from m.base and from target down to their common ancestor.
// All other pages are equal by the dirty-tracking invariant.
func (m *Memory) diffPages(target, anc *Snapshot) map[uint32]struct{} {
	set := make(map[uint32]struct{})
	m.eachDirtyPage(func(off uint32) { set[off] = struct{}{} })
	for c := m.base; c != anc; c = c.parent {
		for _, p := range c.pages {
			set[p.off] = struct{}{}
		}
	}
	for c := target; c != anc; c = c.parent {
		for _, p := range c.pages {
			set[p.off] = struct{}{}
		}
	}
	return set
}

// pageEquals compares one page of m's RAM against the snapshot's
// materialized contents. An unwritten page over a zero one compares no
// bytes.
func (s *Snapshot) pageEquals(m *Memory, off uint32) bool {
	chunk := m.PageAt(off)
	if want := s.pageData(off); want != nil {
		return bytes.Equal(chunk, want)
	}
	return isZero(chunk)
}

// EqualsMemory reports whether a memory's current RAM contents are
// bit-identical to the snapshot's materialization (region tables are fixed
// per image and not compared). When the memory's tracking base shares a
// chain with s, only the pages that can differ — dirty pages plus the chain
// paths between base and s — are compared; otherwise every page is. The
// comparison never mutates tracking state.
func (s *Snapshot) EqualsMemory(m *Memory) bool {
	return m.Size() == s.size && s.eachComparedPage(m, func(off uint32) bool { return s.pageEquals(m, off) })
}

// DiffWords walks m's RAM against the snapshot's materialization over the
// pages EqualsMemory compares and calls fn with the address of every
// size-byte word (size a power of two up to PageBytes, words aligned to it)
// that differs. It stops as soon as fn returns false, and reports whether it
// ran to the end; a memory of another size differs everywhere and reports
// false at once. Equal pages cost one compare, as in EqualsMemory.
func (s *Snapshot) DiffWords(m *Memory, size uint32, fn func(addr uint32) bool) bool {
	return m.Size() == s.size && s.eachComparedPage(m, func(off uint32) bool {
		if s.pageEquals(m, off) {
			return true
		}
		chunk := m.PageAt(off)
		want := s.pageData(off)
		if want == nil {
			want = zeroPage[:len(chunk)]
		}
		for i := 0; i < len(chunk); i += int(size) {
			j := min(i+int(size), len(chunk))
			if !bytes.Equal(chunk[i:j], want[i:j]) && !fn(off+uint32(i)) {
				return false
			}
		}
		return true
	})
}

// eachComparedPage calls fn with every page offset at which m's RAM may
// differ from s's materialization — the dirty-tracking subset when m's base
// shares a chain with s, otherwise eachHeldPage's — until fn returns false,
// and reports whether it ran to the end.
func (s *Snapshot) eachComparedPage(m *Memory, fn func(off uint32) bool) bool {
	if m.base != nil {
		if anc := commonAncestor(m.base, s); anc != nil {
			for off := range m.diffPages(s, anc) {
				if !fn(off) {
					return false
				}
			}
			return true
		}
	}
	return s.eachHeldPage(m, fn)
}

// Restore resets RAM and the region table to a snapshot's materialized
// state and re-anchors dirty tracking on it. When the memory's tracking
// base shares a chain with s, only the pages that can differ are rewritten
// and their start offsets are returned with selective=true, so the caller
// can invalidate derived state (decoded text) page by page instead of
// wholesale. Otherwise the entire image is rebuilt and selective is false.
// Either way a page the snapshot holds as zero goes back to the shared zero
// page.
func (m *Memory) Restore(s *Snapshot) (touched []uint32, selective bool) {
	if m.Size() == s.size && m.base != nil {
		if anc := commonAncestor(m.base, s); anc != nil {
			for off := range m.diffPages(s, anc) {
				m.setPage(off>>pageShift, s.pageData(off))
				touched = append(touched, off)
			}
			m.finishRestore(s)
			obsRestoreSelective.Inc()
			obsRestorePages.Add(float64(len(touched)))
			return touched, true
		}
	}
	if m.Size() != s.size {
		m.resize(s.size)
	}
	s.materializeInto(m)
	m.finishRestore(s)
	obsRestoreFull.Inc()
	return nil, false
}

func (m *Memory) finishRestore(s *Snapshot) {
	m.regions = append(m.regions[:0], s.regions...)
	m.last, m.last2 = 0, 0
	m.Rebase(s)
}

// materializeInto rebuilds m's image, of s's size, as the chain's: nearest
// entries first, each page once, so a deep chain costs no more than the
// image it materializes. A page no entry holds data for goes back to the
// zero page; a page that does keeps its private page if it has one.
func (s *Snapshot) materializeInto(m *Memory) {
	done := newPageSet(len(m.pages))
	for c := s; c != nil; c = c.parent {
		for _, p := range c.pages {
			pn := p.off >> pageShift
			if !done.has(pn) {
				done.add(pn)
				m.setPage(pn, p.data) // nil for a zero marker
			}
		}
	}
	for pn := range m.pages {
		if !done.has(uint32(pn)) {
			m.dropPage(uint32(pn))
		}
	}
}

// Hash returns a 64-bit FNV-1a digest of all of RAM (byte-serial, ~1 ms per
// MiB). Nothing on the injection path calls it — runs are classified by exact
// page compare against the golden terminal image (Snapshot.EqualsMemory) —
// it is the independent reference tests and the benchmark compare against.
func (m *Memory) Hash() uint64 {
	h := fnv.New64a()
	for _, p := range m.pages {
		h.Write(p)
	}
	return h.Sum64()
}

// HashRange digests the half-open byte range [start, end).
func (m *Memory) HashRange(start, end uint32) uint64 {
	h := fnv.New64a()
	h.Write(m.ReadBytes(start, end-start))
	return h.Sum64()
}
