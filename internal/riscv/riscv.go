package riscv

import "fmt"

// Bus is the CPU's view of memory and memory-mapped IO. A device that
// cannot take an access yet refuses it with CPU.Retry.
type Bus interface {
	Load(addr uint32, size int) uint32
	Store(addr uint32, size int, v uint32)
}

// CPU is an RV32I hart.
type CPU struct {
	PC     uint32
	Regs   [32]uint32
	Halted bool

	Instret uint64 // retired instruction count

	retry bool // the bus refused the current instruction's access
}

// Retry, called by the bus from a Load or Store during Step, refuses
// that access: Step returns without writing a register, moving PC or
// retiring the instruction, so the next Step executes it again. A bus
// whose device cannot take the access yet stalls the hart this way.
func (c *CPU) Retry() { c.retry = true }

// refused reports, and clears, a refusal by the bus since the last call.
func (c *CPU) refused() bool {
	r := c.retry
	c.retry = false
	return r
}

// Reset clears architectural state and sets the program counter.
func (c *CPU) Reset(pc uint32) {
	*c = CPU{PC: pc}
}

// Step fetches, decodes and executes one instruction.
func (c *CPU) Step(bus Bus) error {
	if c.Halted {
		return nil
	}
	inst := bus.Load(c.PC, 4)
	if c.refused() {
		return nil
	}
	next := c.PC + 4

	opcode := inst & 0x7f
	rd := inst >> 7 & 0x1f
	funct3 := inst >> 12 & 0x7
	rs1 := inst >> 15 & 0x1f
	rs2 := inst >> 20 & 0x1f
	funct7 := inst >> 25

	immI := int32(inst) >> 20
	immS := int32(inst)>>25<<5 | int32(rd)
	immB := (int32(inst)>>31)<<12 | int32(inst>>7&1)<<11 | int32(inst>>25&0x3f)<<5 | int32(inst>>8&0xf)<<1
	immU := int32(inst & 0xfffff000)
	immJ := (int32(inst)>>31)<<20 | int32(inst>>12&0xff)<<12 | int32(inst>>20&1)<<11 | int32(inst>>21&0x3ff)<<1

	r1, r2 := c.Regs[rs1], c.Regs[rs2]
	set := func(v uint32) {
		if rd != 0 {
			c.Regs[rd] = v
		}
	}

	switch opcode {
	case 0x37: // LUI
		set(uint32(immU))
	case 0x17: // AUIPC
		set(c.PC + uint32(immU))
	case 0x6f: // JAL
		set(next)
		next = c.PC + uint32(immJ)
	case 0x67: // JALR
		t := (r1 + uint32(immI)) &^ 1
		set(next)
		next = t
	case 0x63: // branches
		taken := false
		switch funct3 {
		case 0:
			taken = r1 == r2
		case 1:
			taken = r1 != r2
		case 4:
			taken = int32(r1) < int32(r2)
		case 5:
			taken = int32(r1) >= int32(r2)
		case 6:
			taken = r1 < r2
		case 7:
			taken = r1 >= r2
		default:
			return fmt.Errorf("riscv: bad branch funct3 %d at %#x", funct3, c.PC)
		}
		if taken {
			next = c.PC + uint32(immB)
		}
	case 0x03: // loads
		addr := r1 + uint32(immI)
		var v uint32
		switch funct3 {
		case 0: // LB
			v = uint32(int32(int8(bus.Load(addr, 1))))
		case 1: // LH
			v = uint32(int32(int16(bus.Load(addr, 2))))
		case 2: // LW
			v = bus.Load(addr, 4)
		case 4: // LBU
			v = bus.Load(addr, 1) & 0xff
		case 5: // LHU
			v = bus.Load(addr, 2) & 0xffff
		default:
			return fmt.Errorf("riscv: bad load funct3 %d at %#x", funct3, c.PC)
		}
		if c.refused() {
			return nil
		}
		set(v)
	case 0x23: // stores
		addr := r1 + uint32(immS)
		switch funct3 {
		case 0:
			bus.Store(addr, 1, r2)
		case 1:
			bus.Store(addr, 2, r2)
		case 2:
			bus.Store(addr, 4, r2)
		default:
			return fmt.Errorf("riscv: bad store funct3 %d at %#x", funct3, c.PC)
		}
		if c.refused() {
			return nil
		}
	case 0x13: // OP-IMM
		imm := uint32(immI)
		shamt := imm & 0x1f
		switch funct3 {
		case 0:
			set(r1 + imm)
		case 1:
			set(r1 << shamt)
		case 2:
			if int32(r1) < immI {
				set(1)
			} else {
				set(0)
			}
		case 3:
			if r1 < imm {
				set(1)
			} else {
				set(0)
			}
		case 4:
			set(r1 ^ imm)
		case 5:
			if funct7&0x20 != 0 {
				set(uint32(int32(r1) >> shamt))
			} else {
				set(r1 >> shamt)
			}
		case 6:
			set(r1 | imm)
		case 7:
			set(r1 & imm)
		}
	case 0x33: // OP
		if funct7 == 0x01 { // M extension
			set(mulDiv(funct3, r1, r2))
			break
		}
		switch funct3<<7 | funct7 {
		case 0<<7 | 0x00:
			set(r1 + r2)
		case 0<<7 | 0x20:
			set(r1 - r2)
		case 1<<7 | 0x00:
			set(r1 << (r2 & 0x1f))
		case 2<<7 | 0x00:
			if int32(r1) < int32(r2) {
				set(1)
			} else {
				set(0)
			}
		case 3<<7 | 0x00:
			if r1 < r2 {
				set(1)
			} else {
				set(0)
			}
		case 4<<7 | 0x00:
			set(r1 ^ r2)
		case 5<<7 | 0x00:
			set(r1 >> (r2 & 0x1f))
		case 5<<7 | 0x20:
			set(uint32(int32(r1) >> (r2 & 0x1f)))
		case 6<<7 | 0x00:
			set(r1 | r2)
		case 7<<7 | 0x00:
			set(r1 & r2)
		default:
			return fmt.Errorf("riscv: bad OP funct %d/%#x at %#x", funct3, funct7, c.PC)
		}
	case 0x0f: // FENCE — no-op in this single-hart model
	case 0x73: // SYSTEM: ECALL/EBREAK halt the controller
		c.Halted = true
	default:
		return fmt.Errorf("riscv: unknown opcode %#x at pc %#x", opcode, c.PC)
	}
	c.PC = next
	c.Instret++
	return nil
}

// mulDiv implements the RV32M multiply/divide semantics, including the
// specified divide-by-zero and signed-overflow results.
func mulDiv(funct3, r1, r2 uint32) uint32 {
	s1, s2 := int32(r1), int32(r2)
	switch funct3 {
	case 0: // MUL
		return r1 * r2
	case 1: // MULH
		return uint32(uint64(int64(s1)*int64(s2)) >> 32)
	case 2: // MULHSU
		return uint32(uint64(int64(s1)*int64(int64(r2))) >> 32)
	case 3: // MULHU
		return uint32(uint64(r1) * uint64(r2) >> 32)
	case 4: // DIV
		switch {
		case r2 == 0:
			return ^uint32(0)
		case s1 == -1<<31 && s2 == -1:
			return r1 // overflow: result is the dividend
		default:
			return uint32(s1 / s2)
		}
	case 5: // DIVU
		if r2 == 0 {
			return ^uint32(0)
		}
		return r1 / r2
	case 6: // REM
		switch {
		case r2 == 0:
			return r1
		case s1 == -1<<31 && s2 == -1:
			return 0
		default:
			return uint32(s1 % s2)
		}
	default: // REMU
		if r2 == 0 {
			return r1
		}
		return r1 % r2
	}
}

// Run steps until halt or the instruction budget is exhausted. It
// returns an error for illegal instructions or budget exhaustion.
func (c *CPU) Run(bus Bus, maxInstrs uint64) error {
	for i := uint64(0); i < maxInstrs; i++ {
		if c.Halted {
			return nil
		}
		if err := c.Step(bus); err != nil {
			return err
		}
	}
	if !c.Halted {
		return fmt.Errorf("riscv: did not halt within %d instructions", maxInstrs)
	}
	return nil
}
