package isa

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// runProgram executes code at base 0x400000 with a 64 KiB stack/data region
// at 0x100000, until HLT.
func runProgram(t *testing.T, build func(a *Asm)) *Interp {
	t.Helper()
	var a Asm
	build(&a)
	a.Hlt()
	ip := NewInterp()
	ip.AddRegion(0x400000, a.Bytes())
	ip.AddRegion(0x100000, make([]byte, 1<<16))
	ip.RIP = 0x400000
	ip.Regs[RSP] = 0x100000 + 1<<15
	if err := ip.Run(10000); err != nil {
		t.Fatal(err)
	}
	return ip
}

func TestInterpMovAdd(t *testing.T) {
	ip := runProgram(t, func(a *Asm) {
		a.MovRI32(RAX, 40)
		a.MovRI32(RBX, 2)
		a.AluRR(ADD, RAX, RBX)
	})
	if ip.Regs[RAX] != 42 {
		t.Fatalf("rax = %d", ip.Regs[RAX])
	}
}

func TestInterpPushPop(t *testing.T) {
	ip := runProgram(t, func(a *Asm) {
		a.MovRI32(RAX, 7)
		a.PushReg(RAX)
		a.MovRI32(RAX, 0)
		a.PopReg(RBX)
	})
	if ip.Regs[RBX] != 7 {
		t.Fatalf("rbx = %d", ip.Regs[RBX])
	}
}

func TestInterpMemoryOps(t *testing.T) {
	ip := runProgram(t, func(a *Asm) {
		a.MovRI32(RDI, 0x100000)
		a.MovRI32(RAX, 0x1234)
		a.MovMR(Mem{Base: RDI, Index: NoReg, Scale: 1, Disp: 0x40}, RAX)
		a.MovRM(RBX, Mem{Base: RDI, Index: NoReg, Scale: 1, Disp: 0x40})
		a.AluMI(ADD, Mem{Base: RDI, Index: NoReg, Scale: 1, Disp: 0x40}, 1)
		a.MovRM(RCX, Mem{Base: RDI, Index: NoReg, Scale: 1, Disp: 0x40})
	})
	if ip.Regs[RBX] != 0x1234 || ip.Regs[RCX] != 0x1235 {
		t.Fatalf("rbx=%#x rcx=%#x", ip.Regs[RBX], ip.Regs[RCX])
	}
}

func TestInterpLea(t *testing.T) {
	ip := runProgram(t, func(a *Asm) {
		a.MovRI32(RDI, 0x1000)
		a.MovRI32(RCX, 0x20)
		a.Lea(RBX, Mem{Base: RDI, Index: RCX, Scale: 4, Disp: 0xD401})
	})
	want := uint64(0x1000 + 0x20*4 + 0xD401)
	if ip.Regs[RBX] != want {
		t.Fatalf("rbx=%#x want %#x", ip.Regs[RBX], want)
	}
}

func TestInterpImul(t *testing.T) {
	ip := runProgram(t, func(a *Asm) {
		a.MovRI32(RDI, 6)
		a.Imul3(RCX, RDI, 7)
		a.MovRI32(RAX, 3)
		a.MovRI32(RBX, 5)
		a.Imul2(RAX, RBX)
	})
	if ip.Regs[RCX] != 42 || ip.Regs[RAX] != 15 {
		t.Fatalf("rcx=%d rax=%d", ip.Regs[RCX], ip.Regs[RAX])
	}
}

func TestInterpBranching(t *testing.T) {
	// Loop: sum 1..5 using jcc backward.
	ip := runProgram(t, func(a *Asm) {
		a.MovRI32(RAX, 0)
		a.MovRI32(RCX, 5)
		top := a.Len()
		a.AluRR(ADD, RAX, RCX)
		a.AluRI8(SUB, RCX, 1)
		body := a.Len()
		a.Jcc(CondNE, 0) // placeholder
		// Patch the rel32 to jump back to top.
		rel := int32(top - (body + 6))
		b := a.Bytes()
		b[body+2] = byte(rel)
		b[body+3] = byte(rel >> 8)
		b[body+4] = byte(rel >> 16)
		b[body+5] = byte(rel >> 24)
	})
	if ip.Regs[RAX] != 15 {
		t.Fatalf("sum = %d, want 15", ip.Regs[RAX])
	}
}

func TestInterpCallRet(t *testing.T) {
	// call +1 (skip a HLT); callee sets rbx and returns.
	var a Asm
	a.CallRel32(1) // skip the HLT that follows
	a.Hlt()
	a.MovRI32(RBX, 99)
	a.Ret()
	ip := NewInterp()
	ip.AddRegion(0x400000, a.Bytes())
	ip.AddRegion(0x100000, make([]byte, 4096))
	ip.RIP = 0x400000
	ip.Regs[RSP] = 0x100000 + 2048
	if err := ip.Run(100); err != nil {
		t.Fatal(err)
	}
	if ip.Regs[RBX] != 99 {
		t.Fatalf("rbx = %d", ip.Regs[RBX])
	}
}

func TestInterpVMFuncCounted(t *testing.T) {
	ip := runProgram(t, func(a *Asm) {
		a.Vmfunc()
		a.Vmfunc()
	})
	if ip.VMFuncCount != 2 {
		t.Fatalf("vmfunc count = %d", ip.VMFuncCount)
	}
}

func TestInterpInt3Traps(t *testing.T) {
	var a Asm
	a.Int3()
	ip := NewInterp()
	ip.AddRegion(0x400000, a.Bytes())
	ip.RIP = 0x400000
	if err := ip.Step(); err == nil {
		t.Fatal("int3 did not trap")
	}
}

func TestInterpFaultOnWildAccess(t *testing.T) {
	var a Asm
	a.MovRM(RAX, Mem{Base: NoReg, Index: NoReg, Scale: 1, Disp: 0x10})
	ip := NewInterp()
	ip.AddRegion(0x400000, a.Bytes())
	ip.RIP = 0x400000
	if err := ip.Step(); err == nil {
		t.Fatal("unmapped access did not fault")
	}
}

func TestInterpFlagsSignedCompare(t *testing.T) {
	// CMP -1, 1 then JL should be taken.
	ip := runProgram(t, func(a *Asm) {
		a.MovRI32(RAX, -1)
		a.MovRI32(RBX, 1)
		a.AluRR(CMP, RAX, RBX)
		a.Jcc(CondL, 7) // skip the next MOV (7 bytes)
		a.MovRI32(RCX, 1)
		a.MovRI32(RDX, 2)
	})
	if ip.Regs[RCX] != 0 {
		t.Fatal("JL not taken for -1 < 1")
	}
	if ip.Regs[RDX] != 2 {
		t.Fatal("fall-through after jump target lost")
	}
}

func TestInterpRIPRelative(t *testing.T) {
	// mov rax, [rip+disp] reading a constant placed after the code.
	var a Asm
	a.MovRM(RAX, Mem{RIPRel: true, Base: NoReg, Index: NoReg, Scale: 1, Disp: 1}) // points past HLT
	a.Hlt()
	code := a.Bytes()
	code = append(code, 0xEF, 0xBE, 0, 0, 0, 0, 0, 0) // the constant 0xBEEF
	ip := NewInterp()
	ip.AddRegion(0x400000, code)
	ip.RIP = 0x400000
	if err := ip.Run(10); err != nil {
		t.Fatal(err)
	}
	if ip.Regs[RAX] != 0xBEEF {
		t.Fatalf("rip-relative load got %#x", ip.Regs[RAX])
	}
}

// loopProgram assembles a sum-1..n loop (RAX = n(n+1)/2) that re-executes
// the same three instructions n times.
func loopProgram(n int32) []byte {
	var a Asm
	a.MovRI32(RAX, 0)
	a.MovRI32(RCX, n)
	top := a.Len()
	a.AluRR(ADD, RAX, RCX)
	a.AluRI8(SUB, RCX, 1)
	a.Jcc(CondNE, int32(top-(a.Len()+6)))
	a.Hlt()
	return a.Bytes()
}

// rerun restarts a halted interpreter at base.
func rerun(t *testing.T, ip *Interp, base uint64) {
	t.Helper()
	ip.RIP = base
	ip.Halted = false
	if err := ip.Run(ip.Steps + 1000); err != nil {
		t.Fatal(err)
	}
}

// TestInterpExecutesPatchedCode overwrites already-executed code bytes in
// place and requires the next run to execute the new bytes.
func TestInterpExecutesPatchedCode(t *testing.T) {
	prog := func(v int32) []byte {
		var a Asm
		a.MovRI32(RAX, v)
		a.Hlt()
		return a.Bytes()
	}
	code := prog(1)
	ip := NewInterp()
	ip.AddRegion(0x400000, code) // ip shares the backing slice
	rerun(t, ip, 0x400000)
	if ip.Regs[RAX] != 1 {
		t.Fatalf("first run: rax = %d", ip.Regs[RAX])
	}
	copy(code, prog(2))
	rerun(t, ip, 0x400000)
	if ip.Regs[RAX] != 2 {
		t.Fatalf("after in-place patch: rax = %d, want 2", ip.Regs[RAX])
	}
}

// TestInterpLengthChangingPatch overwrites executed single-byte NOPs with
// an instruction of a different length, shifting every decode boundary.
func TestInterpLengthChangingPatch(t *testing.T) {
	var a Asm
	for i := 0; i < 12; i++ {
		a.Nop()
	}
	a.Hlt()
	code := a.Bytes()
	ip := NewInterp()
	ip.AddRegion(0x400000, code)
	rerun(t, ip, 0x400000)

	var b Asm
	b.MovRI32(RBX, 7)
	for b.Len() < len(code)-1 {
		b.Nop()
	}
	b.Hlt()
	if len(b.Bytes()) != len(code) {
		t.Fatalf("patch length %d != code length %d", len(b.Bytes()), len(code))
	}
	copy(code, b.Bytes())
	rerun(t, ip, 0x400000)
	if ip.Regs[RBX] != 7 {
		t.Fatalf("rbx = %d, want 7", ip.Regs[RBX])
	}
}

// TestInterpStoreOverUpcomingCode: a program that stores new bytes over its
// own next straight-line instruction executes the stored instruction, not
// the one that was there when the run began.
func TestInterpStoreOverUpcomingCode(t *testing.T) {
	var patch Asm
	patch.MovRI32(RCX, 2)
	for patch.Len() < 8 {
		patch.Nop()
	}
	newBytes := binary.LittleEndian.Uint64(patch.Bytes()[:8])
	build := func(target uint64) ([]byte, uint64) {
		var a Asm
		a.MovRI64(RBX, int64(target))
		a.MovRI64(RAX, int64(newBytes))
		a.MovMR(Mem{Base: RBX, Index: NoReg}, RAX)
		off := uint64(a.Len())
		a.MovRI32(RCX, 1) // overwritten before it runs
		a.Nop()
		a.Nop()
		a.Nop()
		a.Hlt()
		return a.Bytes(), off
	}
	_, off := build(0) // immediates do not change encoding lengths
	code, _ := build(0x400000 + off)
	ip := NewInterp()
	ip.AddRegion(0x400000, code)
	rerun(t, ip, 0x400000)
	if ip.Regs[RCX] != 2 {
		t.Fatalf("rcx = %d, want 2 (the stored instruction)", ip.Regs[RCX])
	}
}

// TestInterpRunMaxSteps: Run stops after exactly maxSteps instructions, at
// the RIP that maxSteps single steps reach, and names both in its error.
func TestInterpRunMaxSteps(t *testing.T) {
	for _, maxSteps := range []int{1, 2, 3, 5, 17, 100, 1001} {
		ran := NewInterp()
		ran.AddRegion(0x400000, loopProgram(1000))
		ran.RIP = 0x400000
		err := ran.Run(maxSteps)

		stepped := NewInterp()
		stepped.AddRegion(0x400000, loopProgram(1000))
		stepped.RIP = 0x400000
		for i := 0; i < maxSteps; i++ {
			if err := stepped.Step(); err != nil {
				t.Fatal(err)
			}
		}
		want := fmt.Sprintf("isa: exceeded %d steps at rip %#x", maxSteps, stepped.RIP)
		if err == nil || err.Error() != want {
			t.Fatalf("maxSteps=%d: err %v, want %q", maxSteps, err, want)
		}
		if ran.Steps != maxSteps || ran.RIP != stepped.RIP || ran.Regs != stepped.Regs {
			t.Fatalf("maxSteps=%d: steps=%d rip=%#x, want steps=%d rip=%#x",
				maxSteps, ran.Steps, ran.RIP, maxSteps, stepped.RIP)
		}
	}
}

// TestInterpAddRegionRunsNewCode: code mapped after a run executes when
// control reaches it.
func TestInterpAddRegionRunsNewCode(t *testing.T) {
	ip := NewInterp()
	ip.AddRegion(0x400000, loopProgram(3))
	rerun(t, ip, 0x400000)
	if ip.Regs[RAX] != 6 {
		t.Fatalf("first region: rax = %d, want 6", ip.Regs[RAX])
	}
	ip.AddRegion(0x500000, loopProgram(100))
	rerun(t, ip, 0x500000)
	if ip.Regs[RAX] != 5050 {
		t.Fatalf("new region: rax = %d, want 5050", ip.Regs[RAX])
	}
}

// BenchmarkInterpLoop measures decode-and-execute throughput over the
// 1..100 sum loop.
func BenchmarkInterpLoop(b *testing.B) {
	ip := NewInterp()
	ip.AddRegion(0x400000, loopProgram(100))
	for i := 0; i < b.N; i++ {
		ip.RIP = 0x400000
		ip.Halted = false
		ip.Steps = 0
		if err := ip.Run(10000); err != nil {
			b.Fatal(err)
		}
	}
}
