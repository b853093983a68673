package cpu

import (
	"fmt"
	"math/bits"
)

// ExcKind classifies hardware exceptions — the CPU-level error detection
// mechanisms of Table 1.
type ExcKind int

// Exception kinds.
const (
	// ExcIllegalOpcode: the fetched word decodes to no instruction. The
	// paper observed these mainly from PC-register faults.
	ExcIllegalOpcode ExcKind = iota + 1
	// ExcAddressError: misaligned access, typically from SP faults.
	ExcAddressError
	// ExcBusError: access outside physical memory or a failed I/O access.
	ExcBusError
	// ExcMMUViolation: access outside the task's allowed regions.
	ExcMMUViolation
	// ExcDivZero: division or modulo by zero.
	ExcDivZero
	// ExcECCError: uncorrectable (multi-bit) memory error.
	ExcECCError
	// ExcHalt: the HALT instruction (a stop, not an error).
	ExcHalt
)

// String names the exception kind.
func (k ExcKind) String() string {
	switch k {
	case ExcIllegalOpcode:
		return "illegal-opcode"
	case ExcAddressError:
		return "address-error"
	case ExcBusError:
		return "bus-error"
	case ExcMMUViolation:
		return "mmu-violation"
	case ExcDivZero:
		return "div-zero"
	case ExcECCError:
		return "ecc-uncorrectable"
	case ExcHalt:
		return "halt"
	default:
		return fmt.Sprintf("exc(%d)", int(k))
	}
}

// Exception reports a trapped condition with its location.
type Exception struct {
	Kind ExcKind
	// Addr is the offending data address, when applicable.
	Addr uint32
	// PC is the address of the faulting instruction (filled by Step).
	PC uint32
}

// Error implements error so exceptions can travel through error paths.
func (e *Exception) Error() string {
	return fmt.Sprintf("cpu: %s at pc=%#x addr=%#x", e.Kind, e.PC, e.Addr)
}

// Flags is the condition-code register.
type Flags struct {
	Z bool // zero
	N bool // negative
	C bool // carry (unsigned overflow)
	V bool // signed overflow
}

// Event callbacks let the kernel observe syscalls and signature
// checkpoints without polluting the core interpreter.
type Event struct {
	// Sys is nonzero after a SYS instruction, holding the service number.
	Sys int32
	// Sig holds the checkpoint id after a SIG instruction; HasSig
	// distinguishes checkpoint 0 from no checkpoint. A value field keeps
	// the per-instruction event heap-allocation-free.
	Sig    int32
	HasSig bool
}

// CPU is the processor state. The zero value is not usable; construct
// with New.
type CPU struct {
	Regs  [NumRegs]uint32
	PC    uint32
	Flags Flags
	//nlft:snapshot-skip component with its own Snapshot/Restore pair, captured by Kernel.Snapshot through k.mem.Snapshot
	Mem *Memory
	//nlft:snapshot-skip component with its own Snapshot/Restore pair, captured by Kernel.Snapshot through k.mmu.Snapshot
	MMU *MMU
	// Cycles accumulates the cost of executed instructions.
	Cycles uint64
	// Retired counts executed instructions.
	Retired uint64
	// aluFaultMask, when nonzero, is XORed into the next ALU result and
	// cleared: a single-cycle transient fault in the functional unit.
	aluFaultMask uint32
	// Signature is the running control-flow signature, updated by SIG
	// instructions; the kernel compares it against the golden value.
	Signature uint32
}

// New returns a CPU attached to the given memory (MMU optional).
func New(mem *Memory, mmu *MMU) *CPU {
	if mem == nil {
		panic("cpu: nil memory")
	}
	if mmu == nil {
		mmu = NewMMU()
	}
	return &CPU{Mem: mem, MMU: mmu}
}

// Reset clears registers, flags, signature and sets the PC.
func (c *CPU) Reset(pc uint32) {
	c.Regs = [NumRegs]uint32{}
	c.Flags = Flags{}
	c.PC = pc
	c.Signature = 0
	c.aluFaultMask = 0
}

// Snapshot captures the restorable CPU context — what the paper's kernel
// stores in the task control block so that a task copy can restart with
// clean initial conditions after an EDM-detected error (§2.5).
type Snapshot struct {
	Regs      [NumRegs]uint32
	PC        uint32
	Flags     Flags
	Signature uint32
}

// Snapshot returns a copy of the restorable context.
func (c *CPU) Snapshot() Snapshot {
	return Snapshot{Regs: c.Regs, PC: c.PC, Flags: c.Flags, Signature: c.Signature}
}

// Restore reinstates a previously captured context. A pending ALU fault
// is deliberately NOT cleared: it models a latent fault in the
// functional unit itself, which a context switch cannot scrub.
func (c *CPU) Restore(s Snapshot) {
	c.Regs = s.Regs
	c.PC = s.PC
	c.Flags = s.Flags
	c.Signature = s.Signature
}

// FlipRegister injects a transient single-bit flip into register r.
func (c *CPU) FlipRegister(r int, bit uint) {
	if r >= 0 && r < NumRegs && bit <= 31 {
		c.Regs[r] ^= 1 << bit
	}
}

// FlipPC injects a transient single-bit flip into the program counter.
func (c *CPU) FlipPC(bit uint) {
	if bit <= 31 {
		c.PC ^= 1 << bit
	}
}

// InjectALUFault arranges for the next ALU result to be XORed with mask,
// modelling a transient fault in an adder or multiplier (§2.3, Table 1's
// TEM row: "transient faults in data registers, adders or multipliers").
func (c *CPU) InjectALUFault(mask uint32) { c.aluFaultMask = mask }

// applyALUFault consumes any pending ALU fault.
//
//nlft:noalloc
func (c *CPU) applyALUFault(v uint32) uint32 {
	if c.aluFaultMask != 0 {
		v ^= c.aluFaultMask
		c.aluFaultMask = 0
	}
	return v
}

// load checks the MMU then reads memory.
//
//nlft:noalloc
func (c *CPU) load(addr uint32) (uint32, *Exception) {
	if exc := c.MMU.Check(addr, PermRead); exc != nil {
		return 0, exc
	}
	return c.Mem.Load(addr)
}

// store checks the MMU then writes memory.
//
//nlft:noalloc
func (c *CPU) store(addr, v uint32) *Exception {
	if exc := c.MMU.Check(addr, PermWrite); exc != nil {
		return exc
	}
	return c.Mem.Store(addr, v)
}

// setFlags updates condition codes from a subtraction a−b.
//
//nlft:noalloc
func (c *CPU) setFlags(a, b uint32) {
	d := a - b
	c.Flags.Z = d == 0
	c.Flags.N = int32(d) < 0
	c.Flags.C = a < b
	// Signed overflow of a-b: operands differ in sign and result differs
	// from a's sign.
	c.Flags.V = (int32(a) < 0) != (int32(b) < 0) && (int32(d) < 0) != (int32(a) < 0)
}

// signedLess reports a<b under the current flags (N xor V), as set by CMP.
//
//nlft:noalloc
func (c *CPU) signedLess() bool { return c.Flags.N != c.Flags.V }

// Step executes one instruction. It returns the event raised by SYS/SIG
// instructions (zero Event otherwise) and a non-nil exception when a
// hardware EDM trapped (including ExcHalt for HALT). The cycle cost of
// the instruction is added to Cycles even when it traps.
//
//nlft:noalloc
func (c *CPU) Step() (Event, *Exception) {
	pc := c.PC
	//nlft:allow noalloc non-escaping local helper; inlined and stack-allocated on the fault-free path
	fail := func(e *Exception) (Event, *Exception) {
		e.PC = pc
		return Event{}, e
	}
	if exc := c.MMU.Check(pc, PermExec); exc != nil {
		c.Cycles++
		return fail(exc)
	}
	word, exc := c.Mem.Load(pc)
	if exc != nil {
		c.Cycles++
		return fail(exc)
	}
	d, ok := decode(word)
	if !ok {
		c.Cycles++
		return fail(&Exception{Kind: ExcIllegalOpcode, Addr: pc}) //nlft:allow noalloc exception built on the trap path; a fault-free warm run never traps
	}
	c.Cycles += d.info.cycles
	c.Retired++
	next := pc + 4
	var ev Event

	switch d.op {
	case OpNop:
	case OpHalt:
		return fail(&Exception{Kind: ExcHalt, Addr: pc}) //nlft:allow noalloc exception built on the trap path; a fault-free warm run never traps
	case OpMovi:
		c.Regs[d.rd] = uint32(d.imm)
	case OpMovhi:
		c.Regs[d.rd] = (c.Regs[d.rd] & 0xFFFF) | uint32(uint16(d.imm))<<16
	case OpMov:
		c.Regs[d.rd] = c.Regs[d.ra]
	case OpAdd:
		c.Regs[d.rd] = c.applyALUFault(c.Regs[d.ra] + c.Regs[d.rb])
	case OpSub:
		c.Regs[d.rd] = c.applyALUFault(c.Regs[d.ra] - c.Regs[d.rb])
	case OpMul:
		c.Regs[d.rd] = c.applyALUFault(c.Regs[d.ra] * c.Regs[d.rb])
	case OpDiv:
		if c.Regs[d.rb] == 0 {
			return fail(&Exception{Kind: ExcDivZero, Addr: pc}) //nlft:allow noalloc exception built on the trap path; a fault-free warm run never traps
		}
		c.Regs[d.rd] = c.applyALUFault(uint32(int32(c.Regs[d.ra]) / int32(c.Regs[d.rb])))
	case OpMod:
		if c.Regs[d.rb] == 0 {
			return fail(&Exception{Kind: ExcDivZero, Addr: pc}) //nlft:allow noalloc exception built on the trap path; a fault-free warm run never traps
		}
		c.Regs[d.rd] = c.applyALUFault(uint32(int32(c.Regs[d.ra]) % int32(c.Regs[d.rb])))
	case OpAnd:
		c.Regs[d.rd] = c.applyALUFault(c.Regs[d.ra] & c.Regs[d.rb])
	case OpOr:
		c.Regs[d.rd] = c.applyALUFault(c.Regs[d.ra] | c.Regs[d.rb])
	case OpXor:
		c.Regs[d.rd] = c.applyALUFault(c.Regs[d.ra] ^ c.Regs[d.rb])
	case OpShl:
		c.Regs[d.rd] = c.applyALUFault(c.Regs[d.ra] << (c.Regs[d.rb] & 31))
	case OpShr:
		c.Regs[d.rd] = c.applyALUFault(c.Regs[d.ra] >> (c.Regs[d.rb] & 31))
	case OpSra:
		c.Regs[d.rd] = c.applyALUFault(uint32(int32(c.Regs[d.ra]) >> (c.Regs[d.rb] & 31)))
	case OpAddi:
		c.Regs[d.rd] = c.applyALUFault(c.Regs[d.ra] + uint32(d.imm))
	case OpLd:
		v, exc := c.load(c.Regs[d.ra] + uint32(d.imm))
		if exc != nil {
			return fail(exc)
		}
		c.Regs[d.rd] = v
	case OpSt:
		if exc := c.store(c.Regs[d.ra]+uint32(d.imm), c.Regs[d.rd]); exc != nil {
			return fail(exc)
		}
	case OpCmp:
		c.setFlags(c.Regs[d.ra], c.Regs[d.rb])
	case OpCmpi:
		c.setFlags(c.Regs[d.ra], uint32(d.imm))
	case OpBeq, OpBne, OpBlt, OpBge, OpBle, OpBgt, OpJmp:
		if c.branchTaken(d.op) {
			next = pc + uint32(int32(4)*d.imm)
		}
	case OpJal:
		c.Regs[RegLR] = next
		next = pc + uint32(int32(4)*d.imm)
	case OpJr:
		next = c.Regs[d.ra]
	case OpPush:
		sp := c.Regs[RegSP] - 4
		if exc := c.store(sp, c.Regs[d.rd]); exc != nil {
			return fail(exc)
		}
		c.Regs[RegSP] = sp
	case OpPop:
		v, exc := c.load(c.Regs[RegSP])
		if exc != nil {
			return fail(exc)
		}
		c.Regs[d.rd] = v
		c.Regs[RegSP] += 4
	case OpSig:
		// Running signature: rotate-and-xor, order-sensitive so swapped
		// or skipped checkpoints change the value.
		c.Signature = bits.RotateLeft32(c.Signature, 5) ^ uint32(d.imm)
		ev.Sig = d.imm
		ev.HasSig = true
	case OpSys:
		ev.Sys = d.imm
	default:
		return fail(&Exception{Kind: ExcIllegalOpcode, Addr: pc}) //nlft:allow noalloc exception built on the trap path; a fault-free warm run never traps
	}
	c.PC = next
	return ev, nil
}

// branchTaken evaluates a conditional branch against the flags.
//
//nlft:noalloc
func (c *CPU) branchTaken(op Opcode) bool {
	switch op {
	case OpJmp:
		return true
	case OpBeq:
		return c.Flags.Z
	case OpBne:
		return !c.Flags.Z
	case OpBlt:
		return c.signedLess()
	case OpBge:
		return !c.signedLess()
	case OpBle:
		return c.Flags.Z || c.signedLess()
	case OpBgt:
		return !c.Flags.Z && !c.signedLess()
	default:
		return false
	}
}

// Run executes instructions until an event with Sys != 0, an exception,
// or maxInstructions retire. It returns the final event and exception
// (nil when the instruction budget ran out first). With a predecode
// cache attached (Memory.EnablePredecode) the threaded-code dispatch
// loop runs instead of the interpretive one; behaviour is bit-identical
// (see dispatch.go).
//
//nlft:noalloc
func (c *CPU) Run(maxInstructions uint64) (Event, *Exception) {
	if c.Mem.pre != nil {
		ev, exc, _ := c.runPredecoded(maxInstructions, ^uint64(0))
		return ev, exc
	}
	for i := uint64(0); i < maxInstructions; i++ {
		ev, exc := c.Step()
		if exc != nil {
			return ev, exc
		}
		if ev.Sys != 0 {
			return ev, nil
		}
	}
	return Event{}, nil
}

// RunCycles executes instructions until an event with Sys != 0, an
// exception, or at least maxCycles cycles elapse. It returns the event,
// the exception (nil if the cycle budget ran out), and the cycles
// actually consumed. This is the co-simulation entry point: the kernel
// bounds each run slice by the time until the next simulation event.
//
//nlft:noalloc
func (c *CPU) RunCycles(maxCycles uint64) (Event, *Exception, uint64) {
	if c.Mem.pre != nil {
		return c.runPredecoded(^uint64(0), maxCycles)
	}
	start := c.Cycles
	for c.Cycles-start < maxCycles {
		ev, exc := c.Step()
		if exc != nil {
			return ev, exc, c.Cycles - start
		}
		if ev.Sys != 0 {
			return ev, nil, c.Cycles - start
		}
	}
	return Event{}, nil, c.Cycles - start
}
