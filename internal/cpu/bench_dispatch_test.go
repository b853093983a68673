package cpu

import "testing"

// benchDispatchSrc mirrors the standard campaign workload's compute
// kernel: a register-heavy checksum loop, restarted forever so the
// benchmark never runs off the image.
const benchDispatchSrc = `
	.org 0x0000
start:
	movi r2, 0x1234
	movi r4, 0x0777
	movi r5, 1024
	movi r6, 0
loop:
	add r6, r6, r2
	xor r6, r6, r4
	movi r7, 3
	mul r6, r6, r7
	addi r5, r5, -1
	cmpi r5, 0
	bgt loop
	jmp start
`

// BenchmarkCPUDispatch contrasts the per-step interpretive decoder with
// the predecoded (threaded-code) dispatch engine on the same compute
// loop, with and without MMU confinement (the predecoded loop's cached
// exec window is what keeps the MMU nearly free). Both engines are
// bit-identical in behaviour (FuzzDispatchDifferential and the lockstep
// tests); this benchmark only asks what predecoding buys per simulated
// instruction.
func BenchmarkCPUDispatch(b *testing.B) {
	for _, tc := range []struct {
		name      string
		predecode bool
		mmu       bool
	}{
		{"interpretive", false, false},
		{"predecoded", true, false},
		{"interpretive-mmu", false, true},
		{"predecoded-mmu", true, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			prog := MustAssemble(benchDispatchSrc)
			mem := NewMemory(16384, false)
			prog.LoadInto(mem)
			if tc.predecode {
				mem.EnablePredecode((prog.Origin + prog.SizeBytes()) / 4)
			}
			var mmu *MMU
			if tc.mmu {
				mmu = NewMMU()
				mmu.SetRegions([]Region{
					{Start: prog.Origin, End: prog.Origin + prog.SizeBytes(),
						Perms: PermRead | PermExec},
				})
			}
			c := New(mem, mmu)
			c.Reset(prog.Origin)
			c.Regs[RegSP] = mem.SizeBytes()
			b.ReportAllocs()
			b.ResetTimer()
			var retired uint64
			for i := 0; i < b.N; i++ {
				before := c.Retired
				if _, exc, _ := c.RunCycles(8192); exc != nil {
					b.Fatal(exc)
				}
				retired += c.Retired - before
			}
			b.StopTimer()
			if retired == 0 {
				b.Fatal("no instructions retired")
			}
			nsPerInstr := float64(b.Elapsed().Nanoseconds()) / float64(retired)
			b.ReportMetric(1e9/nsPerInstr, "instr/s")
		})
	}
}
