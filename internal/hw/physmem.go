package hw

import (
	"encoding/binary"
	"fmt"
)

// PhysMem models host physical memory as a sparse set of 4 KiB frames.
// Frames are materialized lazily on first touch, so a simulated 16 GiB
// machine costs only as much real memory as the experiment actually uses.
//
// PhysMem also embeds a simple frame allocator (bump pointer plus free
// list). The allocator hands out frames from the top of a reserved region
// downward so that "allocator frames" (page tables, EPT tables, kernel
// objects) never collide with identity-mapped guest RAM handed to
// applications, which grows from low addresses.
type PhysMem struct {
	size   uint64
	frames map[uint64]*[PageSize]byte

	// Allocator state. allocNext is the next unallocated frame number,
	// counting down from the top of memory. free holds recycled frames.
	allocNext uint64
	free      []uint64

	// Stats.
	allocated uint64
	freed     uint64

	// Frame cache for frame(): accesses cluster heavily on a handful of
	// frames (copy loops alternate between a source frame and the kernel
	// transfer buffer; page-table walks re-read one table page), and a
	// frame's backing array pointer never changes once materialized — frames
	// are never removed from the map, and zeroFrame clears contents in place
	// — so this direct-mapped cache can never go stale and needs no
	// invalidation.
	fcache [16]struct {
		fn uint64
		f  *[PageSize]byte
	}
}

// NewPhysMem creates a physical memory of the given byte size, which must be
// a multiple of PageSize.
func NewPhysMem(size uint64) *PhysMem {
	if size == 0 || size%PageSize != 0 {
		panic(fmt.Sprintf("hw: physical memory size %#x is not page aligned", size))
	}
	return &PhysMem{
		size:      size,
		frames:    make(map[uint64]*[PageSize]byte),
		allocNext: size / PageSize, // one past the last frame; allocation decrements
	}
}

// Size returns the total size of physical memory in bytes.
func (m *PhysMem) Size() uint64 { return m.size }

// AllocatedFrames returns the number of frames currently handed out by the
// allocator (allocations minus frees).
func (m *PhysMem) AllocatedFrames() uint64 { return m.allocated - m.freed }

// AllocFrame returns a newly allocated, zeroed 4 KiB frame.
func (m *PhysMem) AllocFrame() (HPA, error) {
	m.allocated++
	if n := len(m.free); n > 0 {
		fn := m.free[n-1]
		m.free = m.free[:n-1]
		m.zeroFrame(fn)
		return HPA(fn * PageSize), nil
	}
	if m.allocNext == 0 {
		return 0, fmt.Errorf("hw: out of physical memory (%d frames in use)", m.AllocatedFrames())
	}
	m.allocNext--
	m.zeroFrame(m.allocNext)
	return HPA(m.allocNext * PageSize), nil
}

// MustAllocFrame is AllocFrame but panics on exhaustion. It is intended for
// boot-time setup code where exhaustion is a configuration error.
func (m *PhysMem) MustAllocFrame() HPA {
	h, err := m.AllocFrame()
	if err != nil {
		panic(err)
	}
	return h
}

// FreeFrame returns a frame to the allocator. The address must be frame
// aligned and previously allocated.
func (m *PhysMem) FreeFrame(h HPA) {
	if uint64(h)%PageSize != 0 {
		panic(fmt.Sprintf("hw: FreeFrame of unaligned address %#x", uint64(h)))
	}
	m.freed++
	m.free = append(m.free, uint64(h)/PageSize)
}

// AllocatorFloor returns the lowest HPA the frame allocator has handed out.
// Identity-mapped guest RAM must stay below this boundary.
func (m *PhysMem) AllocatorFloor() HPA { return HPA(m.allocNext * PageSize) }

// ReserveRegion carves a contiguous region of frames from the top of
// unallocated memory (below anything already allocated) and returns its
// [base, top) bounds. The general allocator will never hand out frames from
// the region again. The Rootkernel uses this for its private memory
// (§4.1: "SkyBridge only reserves a small portion of physical memory").
func (m *PhysMem) ReserveRegion(frames uint64) (base, top HPA, err error) {
	return m.ReserveRegionAligned(frames*PageSize, PageSize)
}

// ReserveRegionAligned reserves at least bytes of memory whose base and top
// are align-aligned (align must be a power-of-two multiple of PageSize).
// Unaligned slack between the region top and previously allocated frames is
// returned to the free list, so no memory is lost.
func (m *PhysMem) ReserveRegionAligned(bytes, align uint64) (base, top HPA, err error) {
	if align < PageSize || align&(align-1) != 0 {
		return 0, 0, fmt.Errorf("hw: bad reservation alignment %#x", align)
	}
	curTop := m.allocNext * PageSize
	alignedTop := curTop &^ (align - 1)
	size := (bytes + align - 1) &^ (align - 1)
	if size > alignedTop {
		return 0, 0, fmt.Errorf("hw: cannot reserve %#x bytes; only %#x available", size, alignedTop)
	}
	// Give the slack frames back to the allocator.
	for f := alignedTop / PageSize; f < curTop/PageSize; f++ {
		m.free = append(m.free, f)
	}
	base = HPA(alignedTop - size)
	m.allocNext = uint64(base) / PageSize
	return base, HPA(alignedTop), nil
}

func (m *PhysMem) zeroFrame(fn uint64) {
	if f, ok := m.frames[fn]; ok {
		*f = [PageSize]byte{}
	}
}

// frame returns the backing array for the frame containing h, materializing
// it if necessary.
func (m *PhysMem) frame(h HPA) *[PageSize]byte {
	if uint64(h) >= m.size {
		panic(fmt.Sprintf("hw: physical access out of range: %#x >= %#x", uint64(h), m.size))
	}
	fn := uint64(h) / PageSize
	slot := &m.fcache[fn%uint64(len(m.fcache))]
	if slot.f != nil && slot.fn == fn {
		return slot.f
	}
	f, ok := m.frames[fn]
	if !ok {
		f = new([PageSize]byte)
		m.frames[fn] = f
	}
	slot.fn, slot.f = fn, f
	return f
}

// Read copies len(buf) bytes starting at h into buf. Reads may cross frame
// boundaries.
func (m *PhysMem) Read(h HPA, buf []byte) {
	for len(buf) > 0 {
		f := m.frame(h)
		off := uint64(h) & PageMask
		n := copy(buf, f[off:])
		buf = buf[n:]
		h += HPA(n)
	}
}

// Write copies buf into physical memory starting at h. Writes may cross
// frame boundaries.
func (m *PhysMem) Write(h HPA, buf []byte) {
	for len(buf) > 0 {
		f := m.frame(h)
		off := uint64(h) & PageMask
		n := copy(f[off:], buf)
		buf = buf[n:]
		h += HPA(n)
	}
}

// ReadU64 reads a little-endian 8-byte value at h. Used for page-table and
// EPT entries, which are always naturally aligned and never cross frames.
func (m *PhysMem) ReadU64(h HPA) uint64 {
	f := m.frame(h)
	off := uint64(h) & PageMask
	if off+8 > PageSize {
		panic(fmt.Sprintf("hw: unaligned 8-byte physical read at %#x", uint64(h)))
	}
	return binary.LittleEndian.Uint64(f[off : off+8])
}

// WriteU64 writes a little-endian 8-byte value at h.
func (m *PhysMem) WriteU64(h HPA, v uint64) {
	f := m.frame(h)
	off := uint64(h) & PageMask
	if off+8 > PageSize {
		panic(fmt.Sprintf("hw: unaligned 8-byte physical write at %#x", uint64(h)))
	}
	binary.LittleEndian.PutUint64(f[off:off+8], v)
}
