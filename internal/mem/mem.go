// Package mem provides the physical memory of a simulated machine plus the
// region/permission table that stands in for an MMU. There is no guest
// paging: the guest kernel and applications share one physical address
// space, and segmentation faults arise from region permission violations
// exactly as the paper's "access outside its permissions" UT mechanism
// requires. On the host side the address space is a table of PageBytes
// pages: a machine holds only the pages its guest wrote, and every page it
// never wrote is a view of one shared zero page that is never written. A
// snapshot is the list of the pages the memory held, shared, not copied: the
// memory copies a page the first time it writes it after a capture or a
// restore. So a restore repoints only the pages whose slices differ, and a
// compare skips the pages both sides share.
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
	// short when the size is not a page multiple. An entry is the shared
	// zeroPage until its page is first written, a page snapshots share after
	// a capture or a restore, or a private page the memory writes in place.
	// So a machine holds only the pages its guest wrote, and reads need
	// neither a nil check nor a branch.
	pages   [][]byte
	size    uint32
	regions []Region // sorted by Start
	// Two-entry locality cache over region lookups: data accesses
	// typically alternate between two regions (e.g. heap and stack), so a
	// single slot thrashes exactly on the hottest pattern.
	last, last2 int

	// Copy on write. owned is the set of pages the memory may write in
	// place: the private copies writable made since the last Snapshot or
	// Restore, which no snapshot holds. dirty, a subset of owned, is the set
	// written since the last Snapshot, Restore or TakeDirtyPages; the write
	// accessors write in place where it is set and take writable everywhere
	// else. held is the set of entries that are not the zero page, so a
	// capture or a compare visits only those. free holds the private pages
	// Restore replaced, for writable to copy into, and touched is the buffer
	// Restore returns.
	owned, dirty, held pageSet
	free               [][]byte
	touched            []uint32
}

// New returns size bytes of zeroed RAM with no mapped regions. No page is
// allocated until it is written.
func New(size uint32) *Memory {
	m := &Memory{size: size, pages: make([][]byte, pageCount(size))}
	for pn := range m.pages {
		off := uint32(pn) << pageShift
		m.pages[pn] = zeroPage[:pageEnd(off, size)-off]
	}
	m.owned, m.dirty, m.held = newPageSet(len(m.pages)), newPageSet(len(m.pages)), newPageSet(len(m.pages))
	return m
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
// of RAM flows through them, and every one writes in place only to a page
// the memory owns: that is what keeps the pages snapshots share immutable.
// An access at or past Size panics, as an index into a flat image would.

// PageBytes is the page granularity of RAM allocation, copy on write and
// dirty-write tracking. Small enough that a machine pays for the pages its
// guest wrote, not whole RAM images; large enough that the page-table walk of
// a capture, restore or compare stays cheap.
const (
	PageBytes = 1 << 14
	pageShift = 14
	pageMask  = PageBytes - 1
)

// zeroPage backs every page no write has reached, in every memory. Nothing
// writes through it: the memory never owns it, so the write accessors copy
// it first (writable).
var zeroPage [PageBytes]byte

func pageCount(size uint32) int { return int((uint64(size) + PageBytes - 1) / PageBytes) }

// pageSet is a set of page numbers, one bit per page.
type pageSet []uint64

func newPageSet(pages int) pageSet   { return make(pageSet, (pages+63)/64) }
func (s pageSet) add(pn uint32)      { s[pn/64] |= 1 << (pn % 64) }
func (s pageSet) has(pn uint32) bool { return s[pn/64]&(1<<(pn%64)) != 0 }

// next returns the smallest member at or above pn, or a number past the set
// when there is none.
func (s pageSet) next(pn uint32) uint32 {
	for wi := int(pn / 64); wi < len(s); wi++ {
		w := s[wi]
		if wi == int(pn/64) {
			w &^= 1<<(pn%64) - 1
		}
		if w != 0 {
			return uint32(wi*64 + bits.TrailingZeros64(w))
		}
	}
	return uint32(len(s) * 64)
}

func (s pageSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// ReadU8 reads one byte.
func (m *Memory) ReadU8(addr uint32) uint8 { return m.pages[addr>>pageShift][addr&pageMask] }

// WriteU8 writes one byte.
func (m *Memory) WriteU8(addr uint32, v uint8) {
	pn := addr >> pageShift
	if !m.dirty.has(pn) {
		m.writeSlow(addr, 1, uint64(v))
		return
	}
	m.pages[pn][addr&pageMask] = v
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
	if addr&pageMask > PageBytes-4 || !m.dirty.has(pn) {
		m.writeSlow(addr, 4, uint64(v))
		return
	}
	binary.LittleEndian.PutUint32(m.pages[pn][addr&pageMask:], v)
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
	if addr&pageMask > PageBytes-8 || !m.dirty.has(pn) {
		m.writeSlow(addr, 8, v)
		return
	}
	binary.LittleEndian.PutUint64(m.pages[pn][addr&pageMask:], v)
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
// writable: the first write to a page since a capture, restore or
// TakeDirtyPages, and any write that straddles two, comes here.
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

// writable returns the page containing addr for writing in place and marks
// it dirty. A page the memory does not own — the zero page, or a page
// snapshots share — is copied first, into a page off the free list when
// there is one, and owned from then on.
func (m *Memory) writable(addr uint32) []byte {
	pn := addr >> pageShift
	if !m.owned.has(pn) {
		cur := m.pages[pn]
		if n := len(m.free); n > 0 {
			p := m.free[n-1][:len(cur)]
			copy(p, cur)
			m.pages[pn], m.free = p, m.free[:n-1]
		} else {
			m.pages[pn] = append([]byte(nil), cur...)
		}
		m.owned.add(pn)
		m.held.add(pn)
	}
	m.dirty.add(pn)
	return m.pages[pn]
}

// TakeDirtyPages returns the start offsets of the pages written since the
// last Snapshot, Restore or TakeDirtyPages, in ascending order, and clears
// that record. It exists for the propagation tracer's twin machines, which
// use it as a write log between lockstep boundaries. It changes no page's
// ownership, so captures, restores and compares are unaffected.
func (m *Memory) TakeDirtyPages() []uint32 {
	var out []uint32
	for wi, w := range m.dirty {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			out = append(out, (uint32(wi)*64+uint32(b))<<pageShift)
		}
	}
	clear(m.dirty)
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

// snapPage is one page a Snapshot lists: its page number and the page
// itself, shared with the memory it was captured from.
type snapPage struct {
	pn   uint32
	data []byte
}

// Snapshot is the RAM image and region table of a memory at one instant: the
// list of the pages the memory held, shared and never copied. A page the list
// leaves out is zero. The pages stay as captured, because a memory copies a
// page before it next writes it (writable). A Snapshot is safe to share across
// goroutines; Restore, EqualsMemory and DiffWords only read it.
type Snapshot struct {
	size    uint32
	pages   []snapPage // ascending by pn
	regions []Region
}

// Snapshot captures the current RAM image and region table. It lists every
// page that is not the zero page; from here on the memory owns none of them,
// so its next write to any page copies that page first.
func (m *Memory) Snapshot() *Snapshot {
	s := &Snapshot{size: m.size, pages: make([]snapPage, 0, m.held.count()), regions: append([]Region(nil), m.regions...)}
	for pn := m.held.next(0); int(pn) < len(m.pages); pn = m.held.next(pn + 1) {
		s.pages = append(s.pages, snapPage{pn, m.pages[pn]})
	}
	obsSnapshots.Inc()
	obsSnapshotPages.Add(float64(m.owned.count()))
	clear(m.owned)
	clear(m.dirty)
	return s
}

// Bytes returns the RAM payload the snapshots hold together, each page they
// share counted once (telemetry; cache.StateBytes counts chunks the same
// way).
func Bytes(snaps ...*Snapshot) int {
	seen := make(map[*byte]struct{})
	n := 0
	for _, s := range snaps {
		for _, p := range s.pages {
			if _, ok := seen[&p.data[0]]; !ok {
				seen[&p.data[0]] = struct{}{}
				n += len(p.data)
			}
		}
	}
	return n
}

// eachUnshared calls fn, in page order until fn returns false, with every
// page at which m's RAM and s are not the same slice: its number, m's page
// and s's (the zero page where s lists none). It reports whether it ran to
// the end. A page both share is equal without a compare, since neither side
// writes it, so only the union of the pages s lists and the pages m holds is
// visited: everywhere else both sides are the zero page.
func (s *Snapshot) eachUnshared(m *Memory, fn func(pn uint32, have, want []byte) bool) bool {
	end := uint32(len(m.pages))
	i, held := 0, m.held.next(0)
	for {
		pn := held
		if i < len(s.pages) && s.pages[i].pn < pn {
			pn = s.pages[i].pn
		}
		if pn >= end {
			return true
		}
		have := m.pages[pn]
		want := zeroPage[:len(have)]
		if i < len(s.pages) && s.pages[i].pn == pn {
			want = s.pages[i].data
			i++
		}
		if pn == held {
			held = m.held.next(pn + 1)
		}
		if &have[0] != &want[0] && !fn(pn, have, want) {
			return false
		}
	}
}

// EqualsMemory reports whether a memory's current RAM contents are
// bit-identical to the snapshot's (region tables are fixed per image and not
// compared). Only the pages the two do not share are compared, byte for byte.
func (s *Snapshot) EqualsMemory(m *Memory) bool {
	return m.size == s.size && s.eachUnshared(m, func(_ uint32, have, want []byte) bool { return bytes.Equal(have, want) })
}

// DiffWords walks m's RAM against the snapshot over the pages EqualsMemory
// compares and calls fn with the address of every size-byte word (size a
// power of two up to PageBytes, words aligned to it) that differs. It stops
// as soon as fn returns false, and reports whether it ran to the end; a
// memory of another size differs everywhere and reports false at once. Equal
// pages cost one compare, as in EqualsMemory.
func (s *Snapshot) DiffWords(m *Memory, size uint32, fn func(addr uint32) bool) bool {
	return m.size == s.size && s.eachUnshared(m, func(pn uint32, have, want []byte) bool {
		if bytes.Equal(have, want) {
			return true
		}
		for i := 0; i < len(have); i += int(size) {
			j := min(i+int(size), len(have))
			if !bytes.Equal(have[i:j], want[i:j]) && !fn(pn<<pageShift+uint32(i)) {
				return false
			}
		}
		return true
	})
}

// Restore points RAM and the region table at the snapshot's and returns the
// start offsets of the pages it repointed, in ascending order: the pages
// EqualsMemory would compare. A page the snapshot does not list goes back to
// the zero page. A replaced page the memory owned is garbage, since no
// snapshot holds it, and goes on the free list. The returned slice is valid
// until the next Restore. Restoring a snapshot of another RAM size panics.
func (m *Memory) Restore(s *Snapshot) []uint32 {
	if m.size != s.size {
		panic(fmt.Sprintf("mem: Restore of a %#x-byte snapshot into %#x bytes of RAM", s.size, m.size))
	}
	m.touched = m.touched[:0]
	s.eachUnshared(m, func(pn uint32, have, want []byte) bool {
		if m.owned.has(pn) && len(have) == PageBytes {
			m.free = append(m.free, have)
		}
		m.pages[pn] = want
		m.touched = append(m.touched, pn<<pageShift)
		return true
	})
	clear(m.owned)
	clear(m.dirty)
	clear(m.held)
	for _, p := range s.pages {
		m.held.add(p.pn)
	}
	m.regions = append(m.regions[:0], s.regions...)
	m.last, m.last2 = 0, 0
	obsRestores.Inc()
	obsRestorePages.Add(float64(len(m.touched)))
	return m.touched
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
