package hw

import (
	"bytes"
	"errors"
	"testing"
)

// newNativeCPU builds a 1-page-table machine running natively (no EPT).
func newNativeCPU(t *testing.T) (*Machine, *CPU, *PageTable) {
	t.Helper()
	m := NewMachine(MachineConfig{Cores: 2, MemBytes: 1 << 26})
	cpu := m.Cores[0]
	pt := NewPageTable(m.Mem)
	cpu.CR3 = pt.Root
	return m, cpu, pt
}

func TestCPUDataRoundTrip(t *testing.T) {
	_, cpu, pt := newNativeCPU(t)
	if err := pt.Map(0x40_0000, 0x8000, PTEWrite|PTEUser); err != nil {
		t.Fatal(err)
	}
	cpu.Mode = ModeUser
	msg := []byte("skybridge")
	if err := cpu.WriteData(0x40_0100, msg, len(msg)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := cpu.ReadData(0x40_0100, got, len(got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q, want %q", got, msg)
	}
}

func TestCPUPageFaults(t *testing.T) {
	_, cpu, pt := newNativeCPU(t)
	cpu.Mode = ModeUser

	var pf *PageFault
	err := cpu.ReadData(0xdead_0000, nil, 1)
	if !errors.As(err, &pf) {
		t.Fatalf("unmapped read: got %v, want PageFault", err)
	}

	// Supervisor-only page faults in user mode.
	if err := pt.Map(0x50_0000, 0x9000, PTEWrite); err != nil {
		t.Fatal(err)
	}
	if err := cpu.ReadData(0x50_0000, nil, 1); !errors.As(err, &pf) {
		t.Fatalf("user access to kernel page: got %v", err)
	}
	cpu.Mode = ModeKernel
	if err := cpu.ReadData(0x50_0000, nil, 1); err != nil {
		t.Fatalf("kernel access failed: %v", err)
	}

	// Read-only page rejects writes.
	if err := pt.Map(0x60_0000, 0xa000, PTEUser); err != nil {
		t.Fatal(err)
	}
	cpu.Mode = ModeUser
	if err := cpu.WriteData(0x60_0000, nil, 1); !errors.As(err, &pf) {
		t.Fatalf("write to read-only page: got %v", err)
	}

	// NX page rejects fetches.
	if err := pt.Map(0x70_0000, 0xb000, PTEUser|PTENX); err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.FetchCode(0x70_0000, 4); !errors.As(err, &pf) {
		t.Fatalf("fetch from NX page: got %v", err)
	}
}

func TestCPUTLBWarming(t *testing.T) {
	_, cpu, pt := newNativeCPU(t)
	if err := pt.Map(0x40_0000, 0x8000, PTEWrite|PTEUser); err != nil {
		t.Fatal(err)
	}
	cpu.Mode = ModeUser
	if err := cpu.ReadData(0x40_0000, nil, 1); err != nil {
		t.Fatal(err)
	}
	walks := cpu.Counters.PageWalks
	if walks != 1 {
		t.Fatalf("first access did %d walks, want 1", walks)
	}
	if err := cpu.ReadData(0x40_0800, nil, 1); err != nil {
		t.Fatal(err)
	}
	if cpu.Counters.PageWalks != walks {
		t.Fatal("second access to same page walked again (TLB not used)")
	}
}

func TestCPUSyscallCosts(t *testing.T) {
	_, cpu, _ := newNativeCPU(t)
	cpu.Mode = ModeUser
	start := cpu.Clock
	cpu.Syscall()
	cpu.Swapgs()
	cpu.Swapgs()
	cpu.Sysret()
	elapsed := cpu.Clock - start
	want := CostSYSCALL + 2*CostSWAPGS + CostSYSRET
	if elapsed != want {
		t.Fatalf("null syscall cost %d, want %d", elapsed, want)
	}
	if cpu.Mode != ModeUser {
		t.Fatal("mode not restored after sysret")
	}
}

func TestCPUWriteCR3(t *testing.T) {
	m, cpu, pt := newNativeCPU(t)
	pt2 := NewPageTable(m.Mem)
	if err := pt.Map(0x1000, 0x8000, PTEUser); err != nil {
		t.Fatal(err)
	}
	if err := pt2.Map(0x1000, 0x9000, PTEUser); err != nil {
		t.Fatal(err)
	}
	m.Mem.Write(0x8000, []byte{1})
	m.Mem.Write(0x9000, []byte{2})

	cpu.PCID = 1 // address space 1's PCID
	cpu.Mode = ModeUser
	var b [1]byte
	if err := cpu.ReadData(0x1000, b[:], 1); err != nil || b[0] != 1 {
		t.Fatalf("as1: %v %v", err, b)
	}
	// CR3 write requires kernel mode.
	if err := cpu.WriteCR3(pt2.Root, 2); err == nil {
		t.Fatal("user-mode CR3 write allowed")
	}
	cpu.Mode = ModeKernel
	before := cpu.Clock
	if err := cpu.WriteCR3(pt2.Root, 2); err != nil {
		t.Fatal(err)
	}
	if cpu.Clock-before != CostWriteCR3 {
		t.Fatalf("CR3 write cost %d, want %d", cpu.Clock-before, CostWriteCR3)
	}
	cpu.Mode = ModeUser
	if err := cpu.ReadData(0x1000, b[:], 1); err != nil || b[0] != 2 {
		t.Fatalf("as2 after CR3 switch: %v %v", err, b)
	}
	// PCID tagging: switching back must not have lost as1's TLB entry, and
	// must still translate correctly.
	cpu.Mode = ModeKernel
	if err := cpu.WriteCR3(pt.Root, 1); err != nil {
		t.Fatal(err)
	}
	cpu.Mode = ModeUser
	walks := cpu.Counters.PageWalks
	if err := cpu.ReadData(0x1000, b[:], 1); err != nil || b[0] != 1 {
		t.Fatalf("back to as1: %v %v", err, b)
	}
	if cpu.Counters.PageWalks != walks {
		t.Fatal("PCID-tagged entry was lost across CR3 switches")
	}
}

// installVirt places the CPU in non-root mode with an identity base EPT and
// returns (baseEPT, vmcs).
func installVirt(t *testing.T, m *Machine, cpu *CPU) (*EPT, *VMCS) {
	t.Helper()
	base := NewEPT(m.Mem)
	if err := base.MapIdentityRange(0, 1, Page1GSize, EPTAll); err != nil {
		t.Fatal(err)
	}
	vmcs := &VMCS{}
	if err := vmcs.InstallEPTPList([]*EPT{base}); err != nil {
		t.Fatal(err)
	}
	cpu.NonRoot = true
	cpu.VMCS = vmcs
	cpu.SetEPT(base)
	return base, vmcs
}

func TestCPUVMFuncSwitchesEPT(t *testing.T) {
	m, cpu, pt := newNativeCPU(t)
	base, vmcs := installVirt(t, m, cpu)

	// Build a second "server" view: clone base and remap the client's CR3
	// page to a different frame so we can observe the switch.
	pt2 := NewPageTable(m.Mem)
	serverEPT := base.CloneShallow()
	if _, err := serverEPT.RemapGPA(pt.Root.PageBase(), HPA(pt2.Root), EPTRead|EPTWrite); err != nil {
		t.Fatal(err)
	}
	vmcs.EPTPList[1] = serverEPT

	if err := pt.Map(0x1000, 0x8000, PTEUser); err != nil {
		t.Fatal(err)
	}
	if err := pt2.Map(0x1000, 0x9000, PTEUser); err != nil {
		t.Fatal(err)
	}
	m.Mem.Write(0x8000, []byte{0xAA})
	m.Mem.Write(0x9000, []byte{0xBB})

	cpu.Mode = ModeUser
	var b [1]byte
	if err := cpu.ReadData(0x1000, b[:], 1); err != nil || b[0] != 0xAA {
		t.Fatalf("client view: %v %#x", err, b[0])
	}

	// The key SkyBridge mechanism: VMFUNC from user mode, CR3 unchanged,
	// yet the *page table itself* is now the server's because the EPT
	// remaps the CR3 GPA.
	before := cpu.Clock
	if err := cpu.VMFunc(0, 1); err != nil {
		t.Fatal(err)
	}
	if cpu.Clock-before != CostVMFUNC {
		t.Fatalf("VMFUNC cost %d, want %d", cpu.Clock-before, CostVMFUNC)
	}
	if err := cpu.ReadData(0x1000, b[:], 1); err != nil || b[0] != 0xBB {
		t.Fatalf("server view after VMFUNC: %v %#x", err, b[0])
	}

	// Switch back.
	if err := cpu.VMFunc(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := cpu.ReadData(0x1000, b[:], 1); err != nil || b[0] != 0xAA {
		t.Fatalf("client view after return: %v %#x", err, b[0])
	}
}

func TestCPUVMFuncDoesNotFlushTLB(t *testing.T) {
	m, cpu, pt := newNativeCPU(t)
	base, vmcs := installVirt(t, m, cpu)
	vmcs.EPTPList[1] = base.CloneShallow()

	if err := pt.Map(0x1000, 0x8000, PTEUser); err != nil {
		t.Fatal(err)
	}
	cpu.Mode = ModeUser
	if err := cpu.ReadData(0x1000, nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := cpu.VMFunc(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := cpu.VMFunc(0, 0); err != nil {
		t.Fatal(err)
	}
	walks := cpu.Counters.PageWalks
	if err := cpu.ReadData(0x1000, nil, 1); err != nil {
		t.Fatal(err)
	}
	if cpu.Counters.PageWalks != walks {
		t.Fatal("TLB entry lost across VMFUNC round trip (VPID tagging broken)")
	}
	if cpu.DTLB.Stats.Flushes != 0 {
		t.Fatalf("VMFUNC flushed the TLB %d times", cpu.DTLB.Stats.Flushes)
	}
}

func TestCPUVMFuncInvalidIndexExits(t *testing.T) {
	m, cpu, _ := newNativeCPU(t)
	installVirt(t, m, cpu)
	var got *VMExit
	m.SetExitHandler(func(c *CPU, e *VMExit) error {
		got = e
		return errors.New("guest killed")
	})
	if err := cpu.VMFunc(0, 7); err == nil {
		t.Fatal("invalid EPTP index did not fail")
	}
	if got == nil || got.Reason != ExitVMFuncFail || got.Index != 7 {
		t.Fatalf("exit %+v", got)
	}
	if m.VMExits[ExitVMFuncFail] != 1 {
		t.Fatal("exit not counted")
	}
}

func TestCPUVMFuncOutsideNonRootIsUD(t *testing.T) {
	_, cpu, _ := newNativeCPU(t)
	if err := cpu.VMFunc(0, 0); err == nil {
		t.Fatal("VMFUNC in root mode should #UD")
	}
}

func TestCPUEPTViolationDeliversExit(t *testing.T) {
	m, cpu, pt := newNativeCPU(t)
	base, _ := installVirt(t, m, cpu)
	_ = base
	// Map a VA whose GPA lies outside the 1 GiB identity region.
	if err := pt.Map(0x1000, GPA(2<<30), PTEUser|PTEWrite); err != nil {
		t.Fatal(err)
	}
	var got *VMExit
	m.SetExitHandler(func(c *CPU, e *VMExit) error {
		got = e
		return e
	})
	cpu.Mode = ModeUser
	err := cpu.ReadData(0x1000, nil, 1)
	if err == nil {
		t.Fatal("expected EPT violation")
	}
	if got == nil || got.Reason != ExitEPTViolation {
		t.Fatalf("exit %+v", got)
	}
	if got.Violation.GPA != GPA(2<<30) {
		t.Fatalf("violation gpa %#x", uint64(got.Violation.GPA))
	}
}

func TestCPUHypercall(t *testing.T) {
	m, cpu, _ := newNativeCPU(t)
	installVirt(t, m, cpu)
	m.SetExitHandler(func(c *CPU, e *VMExit) error {
		if e.Reason == ExitVMCall {
			e.Hypercall.Ret = e.Hypercall.Args[0] + 1
			return nil
		}
		return e
	})
	ret, err := cpu.VMCall(&Hypercall{Nr: 1, Args: [4]uint64{41}})
	if err != nil || ret != 42 {
		t.Fatalf("hypercall: ret=%d err=%v", ret, err)
	}
	if m.VMExits[ExitVMCall] != 1 {
		t.Fatal("VMCALL exit not counted")
	}
}

func TestCPUInterruptExitless(t *testing.T) {
	m, cpu, _ := newNativeCPU(t)
	installVirt(t, m, cpu)
	m.SetExitHandler(func(c *CPU, e *VMExit) error { return nil })
	if err := cpu.Interrupt(); err != nil {
		t.Fatal(err)
	}
	if m.TotalVMExits() != 0 {
		t.Fatal("exit-less config still exited on interrupt")
	}
	cpu.VMCS.Controls.ExitOnExternalIntr = true
	if err := cpu.Interrupt(); err != nil {
		t.Fatal(err)
	}
	if m.VMExits[ExitExternalInterrupt] != 1 {
		t.Fatal("trap-everything config did not exit on interrupt")
	}
}

func TestMachineIPI(t *testing.T) {
	m := NewMachine(MachineConfig{Cores: 2, MemBytes: 1 << 24})
	before := m.Cores[0].Clock
	m.SendIPI(0, 1)
	if m.Cores[0].Clock-before != CostIPI {
		t.Fatalf("IPI cost %d, want %d", m.Cores[0].Clock-before, CostIPI)
	}
	if m.IPICount != 1 {
		t.Fatal("IPI not counted")
	}
}

func TestCPUCodeFetchReturnsBytes(t *testing.T) {
	m, cpu, pt := newNativeCPU(t)
	if err := pt.Map(0x40_0000, 0x8000, PTEUser); err != nil {
		t.Fatal(err)
	}
	code := []byte{0x0f, 0x01, 0xd4, 0x90} // vmfunc; nop
	m.Mem.Write(0x8000, code)
	cpu.Mode = ModeUser
	got, err := cpu.FetchCode(0x40_0000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, code) {
		t.Fatalf("fetched %x, want %x", got, code)
	}
	if cpu.Counters.CodeFetches == 0 {
		t.Fatal("code fetch not counted")
	}
}

func TestCPUDataCrossPage(t *testing.T) {
	m, cpu, pt := newNativeCPU(t)
	if err := pt.MapRange(0x40_0000, 0x8000, 2, PTEUser|PTEWrite); err != nil {
		t.Fatal(err)
	}
	_ = m
	cpu.Mode = ModeUser
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	va := VA(0x40_0000 + PageSize - 100)
	if err := cpu.WriteData(va, data, len(data)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := cpu.ReadData(va, got, len(got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page data mismatch")
	}
}

func TestVMCSEPTPListLimit(t *testing.T) {
	vmcs := &VMCS{}
	m := NewPhysMem(1 << 24)
	epts := make([]*EPT, EPTPListSize+1)
	for i := range epts {
		epts[i] = NewEPT(m)
	}
	if err := vmcs.InstallEPTPList(epts); err == nil {
		t.Fatal("EPTP list over 512 entries accepted")
	}
	if err := vmcs.InstallEPTPList(epts[:EPTPListSize]); err != nil {
		t.Fatal(err)
	}
}

// readByte reads one byte at va on c in user mode.
func readByte(t *testing.T, c *CPU, va VA) byte {
	t.Helper()
	c.Mode = ModeUser
	var b [1]byte
	if err := c.ReadData(va, b[:], 1); err != nil {
		t.Fatalf("core %d read of %#x: %v", c.ID, uint64(va), err)
	}
	return b[0]
}

// TestCPUPTERemapSeenByColdCore: after a PTE is remapped to a new frame, a
// core that never cached the old translation walks the edited table and
// reads the new frame.
func TestCPUPTERemapSeenByColdCore(t *testing.T) {
	m, c0, pt := newNativeCPU(t)
	c1 := m.Cores[1]
	c1.CR3 = pt.Root
	if err := pt.Map(0x40_0000, 0x8000, PTEUser|PTEWrite); err != nil {
		t.Fatal(err)
	}
	m.Mem.Write(0x8000, []byte{0xAA})
	m.Mem.Write(0x9000, []byte{0xBB})
	if got := readByte(t, c0, 0x40_0000); got != 0xAA {
		t.Fatalf("before remap: %#x", got)
	}
	if err := pt.Map(0x40_0000, 0x9000, PTEUser|PTEWrite); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, c1, 0x40_0000); got != 0xBB {
		t.Fatalf("cold core after remap: %#x, want 0xBB", got)
	}
	if c1.Counters.PageWalks != 1 {
		t.Fatalf("cold core walked %d times, want 1", c1.Counters.PageWalks)
	}
}

// TestCPUEPTDowngradeAfterEvictionExits: once an EPT permission downgrade
// is in place and the old translation has been evicted from the TLB, the
// next write walks the EPT and raises an EPT-violation exit.
func TestCPUEPTDowngradeAfterEvictionExits(t *testing.T) {
	m := NewMachine(MachineConfig{Cores: 1, MemBytes: 1 << 26, DTLBEntries: 4})
	cpu := m.Cores[0]
	pt := NewPageTable(m.Mem)
	cpu.CR3 = pt.Root
	ept, _ := installVirt(t, m, cpu)
	if err := pt.Map(0x40_0000, 0x8000, PTEUser|PTEWrite); err != nil {
		t.Fatal(err)
	}
	cpu.Mode = ModeUser
	if err := cpu.WriteData(0x40_0000, []byte{1}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ept.RemapGPA(0x8000, 0x8000, EPTRead); err != nil {
		t.Fatal(err)
	}
	var got *VMExit
	m.SetExitHandler(func(c *CPU, e *VMExit) error {
		got = e
		return e
	})
	// Evict the entry by touching more pages than the 4-entry DTLB holds.
	for i := 0; i < 8; i++ {
		va := VA(0x50_0000 + i*PageSize)
		if err := pt.Map(va, GPA(0xA000+i*PageSize), PTEUser); err != nil {
			t.Fatal(err)
		}
		if err := cpu.ReadData(va, nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := cpu.WriteData(0x40_0000, []byte{2}, 1); err == nil {
		t.Fatal("write after EPT downgrade succeeded")
	}
	if got == nil || got.Reason != ExitEPTViolation || got.Violation.GPA != 0x8000 {
		t.Fatalf("exit %+v", got)
	}
}

// TestCPUCR3ReloadWalksNewRoot: a CR3 reload to another page table on a
// fresh PCID resolves the same VA through the new root, and reloading the
// old root after its table was edited sees the edit.
func TestCPUCR3ReloadWalksNewRoot(t *testing.T) {
	m, cpu, pt1 := newNativeCPU(t)
	pt2 := NewPageTable(m.Mem)
	if err := pt1.Map(0x40_0000, 0x8000, PTEUser); err != nil {
		t.Fatal(err)
	}
	if err := pt2.Map(0x40_0000, 0x9000, PTEUser); err != nil {
		t.Fatal(err)
	}
	m.Mem.Write(0x8000, []byte{0xA1})
	m.Mem.Write(0x9000, []byte{0xB2})
	reload := func(root GPA, pcid uint16) {
		cpu.Mode = ModeKernel
		if err := cpu.WriteCR3(root, pcid); err != nil {
			t.Fatal(err)
		}
	}
	if got := readByte(t, cpu, 0x40_0000); got != 0xA1 {
		t.Fatalf("under pt1: %#x", got)
	}
	reload(pt2.Root, 2)
	if got := readByte(t, cpu, 0x40_0000); got != 0xB2 {
		t.Fatalf("after CR3 switch: %#x, want 0xB2", got)
	}
	if err := pt1.Map(0x40_0000, 0x9000, PTEUser); err != nil {
		t.Fatal(err)
	}
	reload(pt1.Root, 3)
	if got := readByte(t, cpu, 0x40_0000); got != 0xB2 {
		t.Fatalf("back on edited pt1: %#x, want 0xB2", got)
	}
	if cpu.Counters.PageWalks != 3 {
		t.Fatalf("page walks = %d, want 3 (one per fresh PCID)", cpu.Counters.PageWalks)
	}
}

// TestCPURecycledPageTableFrameRewalked: a page-table root frame that is
// freed and handed out again (zeroed) as the root of a new table is walked
// afresh: a TLB-cold core resolves through the new table's mappings, and
// the old core does too once it flushes its TLB.
func TestCPURecycledPageTableFrameRewalked(t *testing.T) {
	m, c0, pt1 := newNativeCPU(t)
	c1 := m.Cores[1]
	if err := pt1.Map(0x40_0000, 0x8000, PTEUser); err != nil {
		t.Fatal(err)
	}
	m.Mem.Write(0x8000, []byte{0xA1})
	m.Mem.Write(0x9000, []byte{0xB2})
	if got := readByte(t, c0, 0x40_0000); got != 0xA1 {
		t.Fatalf("under pt1: %#x", got)
	}

	m.Mem.FreeFrame(HPA(pt1.Root))
	pt2 := NewPageTable(m.Mem)
	if pt2.Root != pt1.Root {
		t.Fatalf("root frame not recycled: %#x != %#x", uint64(pt2.Root), uint64(pt1.Root))
	}
	c1.CR3 = pt2.Root
	c1.Mode = ModeUser
	var pf *PageFault
	if err := c1.ReadData(0x40_0000, nil, 1); !errors.As(err, &pf) {
		t.Fatalf("read through the zeroed recycled root: got %v, want PageFault", err)
	}
	if err := pt2.Map(0x40_0000, 0x9000, PTEUser); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, c1, 0x40_0000); got != 0xB2 {
		t.Fatalf("cold core on recycled root: %#x, want 0xB2", got)
	}
	c0.DTLB.FlushAll()
	walks := c0.Counters.PageWalks
	if got := readByte(t, c0, 0x40_0000); got != 0xB2 {
		t.Fatalf("flushed core on recycled root: %#x, want 0xB2", got)
	}
	if c0.Counters.PageWalks != walks+1 {
		t.Fatal("flushed core did not re-walk")
	}
}

// benchCPU builds a user-mode core with a 4-entry DTLB over 16 mapped
// pages, so cycling over the pages misses the TLB on every access.
func benchCPU(b *testing.B) *CPU {
	b.Helper()
	m := NewMachine(MachineConfig{Cores: 1, MemBytes: 1 << 26, DTLBEntries: 4})
	cpu := m.Cores[0]
	pt := NewPageTable(m.Mem)
	cpu.CR3 = pt.Root
	cpu.Mode = ModeUser
	if err := pt.MapRange(0x40_0000, 0x8000, 16, PTEUser|PTEWrite); err != nil {
		b.Fatal(err)
	}
	return cpu
}

// BenchmarkTranslateTLBHit measures a data access whose translation is
// resident in the DTLB.
func BenchmarkTranslateTLBHit(b *testing.B) {
	cpu := benchCPU(b)
	var buf [8]byte
	for i := 0; i < b.N; i++ {
		if err := cpu.ReadData(0x40_0000, buf[:], 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageWalk measures a TLB-missing data access: every iteration
// performs a full two-dimensional page walk.
func BenchmarkPageWalk(b *testing.B) {
	cpu := benchCPU(b)
	var buf [8]byte
	for i := 0; i < b.N; i++ {
		if err := cpu.ReadData(VA(0x40_0000+(i%16)*PageSize), buf[:], 8); err != nil {
			b.Fatal(err)
		}
	}
}
