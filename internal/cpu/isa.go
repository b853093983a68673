// Package cpu simulates a small 32-bit COTS microprocessor in the spirit
// of the processors the paper's prototype kernels ran on (Thor, Motorola
// 68340): a register file with PC and SP, word-addressed memory behind an
// optional ECC model, MMU access ranges per task, memory-mapped I/O, and
// the hardware error-detection mechanisms of Table 1 (illegal-opcode
// detection, address/bus errors, division checks, uncorrectable-ECC
// traps).
//
// The simulation is deliberately faithful to the paper's fault-injection
// observations: instructions are *encoded* as 32-bit words, so bit flips
// in memory or in the PC produce illegal opcodes; stack-pointer
// corruption produces address and bus errors; data-register corruption
// silently corrupts computation results until TEM's comparison catches
// it. A two-pass assembler (see Assemble) builds task programs.
package cpu

import "fmt"

// Register file layout. R13 is the frame pointer by convention, R14 the
// link register, R15 the stack pointer.
const (
	NumRegs = 16
	RegFP   = 13
	RegLR   = 14
	RegSP   = 15
)

// Opcode is the 8-bit operation selector in bits 31–24 of a word.
// Values are deliberately sparse so that random bit flips frequently
// produce unassigned opcodes, exercising illegal-opcode detection
// exactly as the paper's experiments on real CPUs did.
type Opcode uint8

// Instruction opcodes.
const (
	OpNop   Opcode = 0x01
	OpHalt  Opcode = 0x03
	OpMovi  Opcode = 0x07 // rd = signext(imm16)
	OpMovhi Opcode = 0x0B // rd = (rd & 0xFFFF) | imm16<<16
	OpMov   Opcode = 0x0D // rd = ra
	OpAdd   Opcode = 0x11 // rd = ra + rb
	OpSub   Opcode = 0x13
	OpMul   Opcode = 0x17
	OpDiv   Opcode = 0x1B // signed; divide-by-zero traps
	OpMod   Opcode = 0x1F
	OpAnd   Opcode = 0x23
	OpOr    Opcode = 0x29
	OpXor   Opcode = 0x2B
	OpShl   Opcode = 0x2F
	OpShr   Opcode = 0x31 // logical
	OpSra   Opcode = 0x37 // arithmetic
	OpAddi  Opcode = 0x3B // rd = ra + signext(imm16)
	OpLd    Opcode = 0x41 // rd = mem[ra + signext(imm16)]
	OpSt    Opcode = 0x43 // mem[ra + signext(imm16)] = rd
	OpCmp   Opcode = 0x53 // flags from ra - rb
	OpCmpi  Opcode = 0x59 // flags from ra - signext(imm16)
	OpBeq   Opcode = 0x61 // PC-relative word offset in imm16
	OpBne   Opcode = 0x63
	OpBlt   Opcode = 0x67 // signed
	OpBge   Opcode = 0x69
	OpBle   Opcode = 0x6D
	OpBgt   Opcode = 0x71
	OpJmp   Opcode = 0x73 // PC-relative
	OpJal   Opcode = 0x79 // LR = return address; PC-relative jump
	OpJr    Opcode = 0x7B // PC = ra
	OpPush  Opcode = 0x83 // SP -= 4; mem[SP] = rd
	OpPop   Opcode = 0x89 // rd = mem[SP]; SP += 4
	OpSig   Opcode = 0x97 // control-flow signature checkpoint (imm16)
	OpSys   Opcode = 0xA1 // system call (imm16 = service)
)

// System-call service numbers (the SYS immediate).
const (
	// SysYield relinquishes the CPU voluntarily (cooperative point).
	SysYield = 0x01
	// SysEnd marks the end of a task instance (its write-output phase is
	// complete). The kernel regains control.
	SysEnd = 0x02
)

// opInfo describes an opcode's operand shape and cycle cost.
type opInfo struct {
	name   string
	format opFormat
	cycles uint64
}

type opFormat int

const (
	fmtNone      opFormat = iota + 1 // NOP, HALT
	fmtRegImm                        // MOVI/MOVHI rd, imm
	fmtRegReg                        // MOV rd, ra
	fmtThreeReg                      // ADD rd, ra, rb
	fmtRegRegImm                     // ADDI rd, ra, imm
	fmtMem                           // LD/ST rd, [ra+imm]
	fmtCmpRR                         // CMP ra, rb
	fmtCmpRI                         // CMPI ra, imm
	fmtBranch                        // Bcc imm (PC-relative)
	fmtJumpReg                       // JR ra
	fmtOneReg                        // PUSH/POP rd
	fmtImmOnly                       // SIG/SYS imm
)

// opSpecs is the source of truth for the instruction set (the assembler
// iterates it to build its mnemonic table).
var opSpecs = map[Opcode]opInfo{
	OpNop:   {"nop", fmtNone, 1},
	OpHalt:  {"halt", fmtNone, 1},
	OpMovi:  {"movi", fmtRegImm, 1},
	OpMovhi: {"movhi", fmtRegImm, 1},
	OpMov:   {"mov", fmtRegReg, 1},
	OpAdd:   {"add", fmtThreeReg, 1},
	OpSub:   {"sub", fmtThreeReg, 1},
	OpMul:   {"mul", fmtThreeReg, 3},
	OpDiv:   {"div", fmtThreeReg, 12},
	OpMod:   {"mod", fmtThreeReg, 12},
	OpAnd:   {"and", fmtThreeReg, 1},
	OpOr:    {"or", fmtThreeReg, 1},
	OpXor:   {"xor", fmtThreeReg, 1},
	OpShl:   {"shl", fmtThreeReg, 1},
	OpShr:   {"shr", fmtThreeReg, 1},
	OpSra:   {"sra", fmtThreeReg, 1},
	OpAddi:  {"addi", fmtRegRegImm, 1},
	OpLd:    {"ld", fmtMem, 2},
	OpSt:    {"st", fmtMem, 2},
	OpCmp:   {"cmp", fmtCmpRR, 1},
	OpCmpi:  {"cmpi", fmtCmpRI, 1},
	OpBeq:   {"beq", fmtBranch, 1},
	OpBne:   {"bne", fmtBranch, 1},
	OpBlt:   {"blt", fmtBranch, 1},
	OpBge:   {"bge", fmtBranch, 1},
	OpBle:   {"ble", fmtBranch, 1},
	OpBgt:   {"bgt", fmtBranch, 1},
	OpJmp:   {"jmp", fmtBranch, 1},
	OpJal:   {"jal", fmtBranch, 2},
	OpJr:    {"jr", fmtJumpReg, 1},
	OpPush:  {"push", fmtOneReg, 2},
	OpPop:   {"pop", fmtOneReg, 2},
	OpSig:   {"sig", fmtImmOnly, 1},
	OpSys:   {"sys", fmtImmOnly, 1},
}

// opTable flattens opSpecs into a direct-indexed array: decode runs on
// every simulated instruction, and indexing replaces a map hash on the
// interpreter's hottest path. The zero opFormat marks an unassigned
// opcode (illegal-opcode EDM).
var opTable = func() (t [256]opInfo) {
	//nlft:allow nodeterminism each key lands in its own array slot; iteration order cannot affect the table
	for op, info := range opSpecs {
		t[op] = info
	}
	return t
}()

// Encode packs an instruction word: opcode in bits 31–24, rd in 23–20,
// ra in 19–16, and either rb in 15–12 or a 16-bit immediate in 15–0.
func Encode(op Opcode, rd, ra, rb int, imm int32) uint32 {
	w := uint32(op) << 24
	w |= (uint32(rd) & 0xF) << 20
	w |= (uint32(ra) & 0xF) << 16
	info := opTable[op]
	if info.format == 0 {
		panic(fmt.Sprintf("cpu: encode unknown opcode %#x", uint8(op)))
	}
	switch info.format {
	case fmtThreeReg, fmtCmpRR:
		w |= (uint32(rb) & 0xF) << 12
	case fmtRegImm, fmtRegRegImm, fmtMem, fmtCmpRI, fmtBranch, fmtImmOnly:
		w |= uint32(uint16(imm))
	}
	return w
}

// decoded is an instruction after field extraction.
type decoded struct {
	op   Opcode
	info opInfo
	rd   int
	ra   int
	rb   int
	imm  int32 // sign-extended
}

// decode splits an instruction word, reporting ok=false for an opcode
// that is not assigned (the illegal-opcode EDM fires on those).
func decode(w uint32) (decoded, bool) {
	op := Opcode(w >> 24)
	info := opTable[op]
	if info.format == 0 {
		return decoded{}, false
	}
	d := decoded{
		op:   op,
		info: info,
		rd:   int((w >> 20) & 0xF),
		ra:   int((w >> 16) & 0xF),
		rb:   int((w >> 12) & 0xF),
		imm:  int32(int16(uint16(w))),
	}
	return d, true
}

// Disassemble renders an instruction word as assembler source. It is
// the inverse FuzzAssemble and TestAssembleDisassembleProperty
// round-trip the assembler through.
func Disassemble(w uint32) string {
	d, ok := decode(w)
	if !ok {
		return fmt.Sprintf(".word %#08x", w)
	}
	switch d.info.format {
	case fmtNone:
		return d.info.name
	case fmtRegImm:
		return fmt.Sprintf("%s r%d, %d", d.info.name, d.rd, d.imm)
	case fmtRegReg:
		return fmt.Sprintf("%s r%d, r%d", d.info.name, d.rd, d.ra)
	case fmtThreeReg:
		return fmt.Sprintf("%s r%d, r%d, r%d", d.info.name, d.rd, d.ra, d.rb)
	case fmtRegRegImm:
		return fmt.Sprintf("%s r%d, r%d, %d", d.info.name, d.rd, d.ra, d.imm)
	case fmtMem:
		return fmt.Sprintf("%s r%d, [r%d%+d]", d.info.name, d.rd, d.ra, d.imm)
	case fmtCmpRR:
		return fmt.Sprintf("%s r%d, r%d", d.info.name, d.ra, d.rb)
	case fmtCmpRI:
		return fmt.Sprintf("%s r%d, %d", d.info.name, d.ra, d.imm)
	case fmtBranch:
		return fmt.Sprintf("%s %+d", d.info.name, d.imm)
	case fmtJumpReg:
		return fmt.Sprintf("%s r%d", d.info.name, d.ra)
	case fmtOneReg:
		return fmt.Sprintf("%s r%d", d.info.name, d.rd)
	case fmtImmOnly:
		return fmt.Sprintf("%s %d", d.info.name, d.imm)
	default:
		return fmt.Sprintf(".word %#08x", w)
	}
}
