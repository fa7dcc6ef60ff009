package rewrite

import (
	"testing"

	"skybridge/internal/isa"
)

// TestRewritePassOverExecutedCode models the deployment sequence: a process
// executes its code, then the Rootkernel's rewrite pass patches the mapped
// code page in place. Re-execution must follow the rewritten bytes — zero
// VMFUNCs and equivalent architectural results. The interpreter decodes
// each instruction from the mapped bytes as it steps, its one execution path.
func TestRewritePassOverExecutedCode(t *testing.T) {
	t.Run("step", func(t *testing.T) {
		code := buildProgram(func(a *isa.Asm) {
			a.MovRI32(isa.RAX, 1)
			a.Vmfunc()
			a.MovRI32(isa.RBX, 2)
			a.AluRI(isa.ADD, isa.RAX, 0xD4010F)
		})
		res, err := New(testCodeBase).Rewrite(code)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Code) != len(code) {
			t.Fatalf("rewrite changed code length: %d -> %d", len(code), len(res.Code))
		}

		// The interpreter shares the region's backing slice, so copying the
		// rewritten bytes over it is an in-place patch of already-executed code.
		region := append([]byte(nil), code...)
		ip := isa.NewInterp()
		ip.AddRegion(testCodeBase, region)
		ip.AddRegion(testDataBase, make([]byte, testDataLen))
		if len(res.RewritePage) > 0 {
			ip.AddRegion(DefaultRewriteBase, res.RewritePage)
		}
		ip.RIP = testCodeBase
		ip.Regs[isa.RSP] = testDataBase + testDataLen - 256
		if err := ip.Run(100000); err != nil {
			t.Fatal(err)
		}
		if ip.VMFuncCount != 1 {
			t.Fatalf("original code executed %d VMFUNCs, want 1", ip.VMFuncCount)
		}
		wantRAX, wantRBX := ip.Regs[isa.RAX], ip.Regs[isa.RBX]

		copy(region, res.Code) // the rewrite pass lands
		ip.RIP = testCodeBase
		ip.Halted = false
		ip.VMFuncCount = 0
		ip.Regs = [16]uint64{}
		ip.Regs[isa.RSP] = testDataBase + testDataLen - 256
		if err := ip.Run(100000); err != nil {
			t.Fatal(err)
		}
		if ip.VMFuncCount != 0 {
			t.Fatalf("rewritten code executed %d VMFUNCs", ip.VMFuncCount)
		}
		if ip.Regs[isa.RAX] != wantRAX || ip.Regs[isa.RBX] != wantRBX {
			t.Fatalf("rewritten run diverged: rax=%#x rbx=%#x, want rax=%#x rbx=%#x",
				ip.Regs[isa.RAX], ip.Regs[isa.RBX], wantRAX, wantRBX)
		}
	})
}
