package riscv

import (
	"math/rand"
	"testing"
)

// ram is a simple word-addressable test memory.
type ram struct {
	data []byte
}

func newRAM(size int) *ram { return &ram{data: make([]byte, size)} }

func (r *ram) Load(addr uint32, size int) uint32 {
	var v uint32
	for i := 0; i < size; i++ {
		v |= uint32(r.data[int(addr)+i]) << (8 * i)
	}
	return v
}

func (r *ram) Store(addr uint32, size int, v uint32) {
	for i := 0; i < size; i++ {
		r.data[int(addr)+i] = byte(v >> (8 * i))
	}
}

// run assembles and executes a program, returning the CPU and memory.
func run(t *testing.T, p *Program, maxInstr uint64) (*CPU, *ram) {
	t.Helper()
	m := newRAM(1 << 16)
	for i, w := range p.Assemble() {
		m.Store(p.Base+uint32(i)*4, 4, w)
	}
	c := &CPU{}
	c.Reset(p.Base)
	if err := c.Run(m, maxInstr); err != nil {
		t.Fatal(err)
	}
	return c, m
}

func TestArithmetic(t *testing.T) {
	p := NewProgram(0)
	p.LI(T0, 100).LI(T1, 42)
	p.ADD(A0, T0, T1) // 142
	p.SUB(A1, T0, T1) // 58
	p.XOR(A2, T0, T1) // 100^42
	p.SLLI(A3, T0, 3) // 800
	p.SRAI(A4, T1, 1) // 21
	p.ECALL()
	c, _ := run(t, p, 100)
	want := map[uint32]uint32{A0: 142, A1: 58, A2: 100 ^ 42, A3: 800, A4: 21}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("reg %d = %d, want %d", r, c.Regs[r], v)
		}
	}
}

func TestLINegativeAndLarge(t *testing.T) {
	for _, v := range []uint32{0, 1, 0xfffff800, 0xffffffff, 0x12345678, 0x80000000, 2047, 2048, 4096} {
		p := NewProgram(0)
		p.LI(A0, v).ECALL()
		c, _ := run(t, p, 10)
		if c.Regs[A0] != v {
			t.Errorf("LI %#x loaded %#x", v, c.Regs[A0])
		}
	}
}

func TestBranchesAndLoop(t *testing.T) {
	// Sum 1..10 with a loop.
	p := NewProgram(0)
	p.LI(T0, 0)  // sum
	p.LI(T1, 1)  // i
	p.LI(T2, 11) // bound
	p.Label("loop")
	p.ADD(T0, T0, T1)
	p.ADDI(T1, T1, 1)
	p.BLT(T1, T2, "loop")
	p.ECALL()
	c, _ := run(t, p, 1000)
	if c.Regs[T0] != 55 {
		t.Fatalf("sum = %d, want 55", c.Regs[T0])
	}
}

func TestMemoryAndSignExtension(t *testing.T) {
	p := NewProgram(0)
	p.LI(T0, 0x1000)
	p.LI(T1, 0xfffffe80) // -384; low byte 0x80
	p.SW(T1, T0, 0)
	p.LW(A0, T0, 0)
	p.LBU(A1, T0, 0) // 0x80 zero-extended
	p.emitLB(A2, T0, 0)
	p.ECALL()
	c, _ := run(t, p, 100)
	if c.Regs[A0] != 0xfffffe80 {
		t.Errorf("LW = %#x", c.Regs[A0])
	}
	if c.Regs[A1] != 0x80 {
		t.Errorf("LBU = %#x", c.Regs[A1])
	}
	if c.Regs[A2] != 0xffffff80 {
		t.Errorf("LB = %#x", c.Regs[A2])
	}
}

// emitLB is a test helper for the LB encoding (not in the builder API).
func (p *Program) emitLB(rd, rs1 uint32, off int32) *Program {
	return p.emit(itype(off, rs1, 0, rd, 0x03))
}

func TestJALAndFunctionCall(t *testing.T) {
	p := NewProgram(0)
	p.LI(A0, 7)
	p.JAL(RA, "double")
	p.JAL(RA, "double")
	p.ECALL()
	p.Label("double")
	p.ADD(A0, A0, A0)
	p.JALR(Zero, RA, 0)
	c, _ := run(t, p, 100)
	if c.Regs[A0] != 28 {
		t.Fatalf("a0 = %d, want 28", c.Regs[A0])
	}
}

func TestX0AlwaysZero(t *testing.T) {
	p := NewProgram(0)
	p.ADDI(Zero, Zero, 123)
	p.ADD(A0, Zero, Zero)
	p.ECALL()
	c, _ := run(t, p, 10)
	if c.Regs[Zero] != 0 || c.Regs[A0] != 0 {
		t.Fatal("x0 is writable")
	}
}

func TestSortProgram(t *testing.T) {
	const base = 0x2000
	p := NewProgram(0)
	p.LI(S0, base)
	p.LI(S1, 8) // n
	p.Label("outer")
	p.LI(T0, 0) // swapped
	p.LI(T1, 0) // i
	p.ADDI(T2, S1, -1)
	p.Label("inner")
	p.BGE(T1, T2, "innerdone")
	p.SLLI(A2, T1, 2)
	p.ADD(A2, A2, S0)
	p.LW(A3, A2, 0)
	p.LW(A4, A2, 4)
	p.BGE(A4, A3, "noswap")
	p.SW(A4, A2, 0)
	p.SW(A3, A2, 4)
	p.LI(T0, 1)
	p.Label("noswap")
	p.ADDI(T1, T1, 1)
	p.J("inner")
	p.Label("innerdone")
	p.BNE(T0, Zero, "outer")
	p.ECALL()

	m := newRAM(1 << 16)
	for i, w := range p.Assemble() {
		m.Store(uint32(i)*4, 4, w)
	}
	r := rand.New(rand.NewSource(3))
	vals := make([]uint32, 8)
	for i := range vals {
		vals[i] = uint32(r.Intn(1000))
		m.Store(base+uint32(i)*4, 4, vals[i])
	}
	cpu := &CPU{}
	cpu.Reset(0)
	if err := cpu.Run(m, 100000); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 8; i++ {
		a, b := m.Load(base+uint32(i-1)*4, 4), m.Load(base+uint32(i)*4, 4)
		if a > b {
			t.Fatalf("not sorted at %d: %d > %d", i, a, b)
		}
	}
}

// Property: OP and OP-IMM semantics match Go's operators on random values.
func TestALUSemanticsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for iter := 0; iter < 300; iter++ {
		x, y := uint32(r.Uint64()), uint32(r.Uint64())
		p := NewProgram(0)
		p.LI(T0, x).LI(T1, y)
		p.ADD(10, T0, T1)
		p.SUB(11, T0, T1)
		p.AND(12, T0, T1)
		p.OR(13, T0, T1)
		p.XOR(14, T0, T1)
		p.SLL(15, T0, T1)
		p.SRL(16, T0, T1)
		p.SRA(17, T0, T1)
		p.SLT(18, T0, T1)
		p.SLTU(19, T0, T1)
		p.ECALL()
		c, _ := run(t, p, 100)
		sh := y & 31
		want := []uint32{
			x + y, x - y, x & y, x | y, x ^ y,
			x << sh, x >> sh, uint32(int32(x) >> sh),
			b2u(int32(x) < int32(y)), b2u(x < y),
		}
		for i, w := range want {
			if c.Regs[10+i] != w {
				t.Fatalf("iter %d op %d: got %#x want %#x (x=%#x y=%#x)", iter, i, c.Regs[10+i], w, x, y)
			}
		}
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Property: RV32M semantics match Go reference arithmetic, including the
// divide-by-zero and signed-overflow special cases.
func TestMExtensionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cases := make([][2]uint32, 0, 320)
	for i := 0; i < 300; i++ {
		cases = append(cases, [2]uint32{uint32(r.Uint64()), uint32(r.Uint64())})
	}
	// Directed specials.
	cases = append(cases,
		[2]uint32{5, 0}, [2]uint32{0x80000000, 0xffffffff},
		[2]uint32{0, 0}, [2]uint32{0xffffffff, 0xffffffff},
		[2]uint32{0x80000000, 0}, [2]uint32{1, 0x80000000})
	for _, c := range cases {
		x, y := c[0], c[1]
		p := NewProgram(0)
		p.LI(T0, x).LI(T1, y)
		p.MUL(10, T0, T1)
		p.MULH(11, T0, T1)
		p.MULHSU(12, T0, T1)
		p.MULHU(13, T0, T1)
		p.DIV(14, T0, T1)
		p.DIVU(15, T0, T1)
		p.REM(16, T0, T1)
		p.REMU(17, T0, T1)
		p.ECALL()
		cpu, _ := run(t, p, 100)

		s1, s2 := int32(x), int32(y)
		div := func() uint32 {
			switch {
			case y == 0:
				return ^uint32(0)
			case s1 == -1<<31 && s2 == -1:
				return x
			default:
				return uint32(s1 / s2)
			}
		}()
		rem := func() uint32 {
			switch {
			case y == 0:
				return x
			case s1 == -1<<31 && s2 == -1:
				return 0
			default:
				return uint32(s1 % s2)
			}
		}()
		divu, remu := ^uint32(0), x
		if y != 0 {
			divu, remu = x/y, x%y
		}
		want := []uint32{
			x * y,
			uint32(uint64(int64(s1)*int64(s2)) >> 32),
			uint32(uint64(int64(s1)*int64(uint64(y))) >> 32),
			uint32(uint64(x) * uint64(y) >> 32),
			div, divu, rem, remu,
		}
		for i, w := range want {
			if cpu.Regs[10+i] != w {
				t.Fatalf("x=%#x y=%#x op %d: got %#x want %#x", x, y, i, cpu.Regs[10+i], w)
			}
		}
	}
}

func TestImmediateOps(t *testing.T) {
	p := NewProgram(0)
	p.LI(T0, 100)
	p.SLTI(10, T0, 200)  // 1
	p.SLTI(11, T0, 50)   // 0
	p.SLTIU(12, T0, 200) // 1
	p.XORI(13, T0, 0xff) // 100^255
	p.ORI(14, T0, 0x0f)
	p.ANDI(15, T0, 0x3c)
	p.SRLI(16, T0, 2)
	p.ECALL()
	c, _ := run(t, p, 50)
	want := []uint32{1, 0, 1, 100 ^ 255, 100 | 0x0f, 100 & 0x3c, 25}
	for i, w := range want {
		if c.Regs[10+i] != w {
			t.Fatalf("op %d: got %d want %d", i, c.Regs[10+i], w)
		}
	}
}

func TestAUIPC(t *testing.T) {
	p := NewProgram(0x1000)
	p.NOP()
	p.emit(0x2<<12 | A0<<7 | 0x17) // auipc a0, 2
	p.ECALL()
	m := newRAM(1 << 16)
	for i, w := range p.Assemble() {
		m.Store(0x1000+uint32(i)*4, 4, w)
	}
	c := &CPU{}
	c.Reset(0x1000)
	if err := c.Run(m, 10); err != nil {
		t.Fatal(err)
	}
	if c.Regs[A0] != 0x1004+0x2000 {
		t.Fatalf("auipc = %#x, want %#x", c.Regs[A0], 0x1004+0x2000)
	}
}

func TestHalfwordAndByteMemory(t *testing.T) {
	p := NewProgram(0)
	p.LI(T0, 0x2000)
	p.LI(T1, 0xdead)
	p.emitSH(T1, T0, 0)
	p.emitLH(A0, T0, 0)  // sign-extends 0xdead
	p.emitLHU(A1, T0, 0) // zero-extends
	p.LI(T2, 0x7f)
	p.SB(T2, T0, 8)
	p.LBU(A2, T0, 8)
	p.ECALL()
	c, _ := run(t, p, 50)
	if c.Regs[A0] != 0xffffdead {
		t.Errorf("LH = %#x", c.Regs[A0])
	}
	if c.Regs[A1] != 0xdead {
		t.Errorf("LHU = %#x", c.Regs[A1])
	}
	if c.Regs[A2] != 0x7f {
		t.Errorf("LBU = %#x", c.Regs[A2])
	}
}

func (p *Program) emitSH(rs2, rs1 uint32, off int32) *Program { return p.emit(stype(off, rs2, rs1, 1)) }
func (p *Program) emitLH(rd, rs1 uint32, off int32) *Program {
	return p.emit(itype(off, rs1, 1, rd, 0x03))
}
func (p *Program) emitLHU(rd, rs1 uint32, off int32) *Program {
	return p.emit(itype(off, rs1, 5, rd, 0x03))
}

func TestFenceIsNop(t *testing.T) {
	p := NewProgram(0)
	p.LI(A0, 9)
	p.emit(0x0000000f) // FENCE
	p.ECALL()
	c, _ := run(t, p, 10)
	if c.Regs[A0] != 9 {
		t.Fatal("fence disturbed state")
	}
	if c.Instret != 3 {
		t.Fatalf("instret = %d, want 3", c.Instret)
	}
}

func TestBranchVariants(t *testing.T) {
	// Exercise BEQ/BGEU/BGE taken and not-taken.
	p := NewProgram(0)
	p.LI(T0, 5).LI(T1, 5)
	p.BEQ(T0, T1, "eq")
	p.LI(A0, 99) // skipped
	p.Label("eq")
	p.LI(T2, 0xffffffff) // -1 signed, max unsigned
	p.BGEU(T2, T0, "geu")
	p.LI(A1, 99)
	p.Label("geu")
	p.BGE(T0, T2, "ge") // 5 >= -1 signed: taken
	p.LI(A2, 99)
	p.Label("ge")
	p.ECALL()
	c, _ := run(t, p, 50)
	if c.Regs[A0] == 99 || c.Regs[A1] == 99 || c.Regs[A2] == 99 {
		t.Fatalf("branch semantics wrong: a0=%d a1=%d a2=%d", c.Regs[A0], c.Regs[A1], c.Regs[A2])
	}
}

func TestIllegalInstruction(t *testing.T) {
	m := newRAM(64)
	m.Store(0, 4, 0xffffffff)
	c := &CPU{}
	c.Reset(0)
	if err := c.Step(m); err == nil {
		t.Fatal("no error for illegal instruction")
	}
}

func TestRunBudget(t *testing.T) {
	p := NewProgram(0)
	p.Label("spin").J("spin")
	m := newRAM(64)
	for i, w := range p.Assemble() {
		m.Store(uint32(i)*4, 4, w)
	}
	c := &CPU{}
	c.Reset(0)
	if err := c.Run(m, 100); err == nil {
		t.Fatal("no error for non-halting program")
	}
}

// stallBus refuses the first refusals data accesses at or above addr
// with CPU.Retry, as a device that cannot take them yet does.
type stallBus struct {
	*ram
	cpu      *CPU
	addr     uint32
	refusals int
	loads    int
}

func (b *stallBus) Load(addr uint32, size int) uint32 {
	if addr >= b.addr {
		b.loads++
		if b.refusals > 0 {
			b.refusals--
			b.cpu.Retry()
			return 0xdead
		}
	}
	return b.ram.Load(addr, size)
}

func (b *stallBus) Store(addr uint32, size int, v uint32) {
	if addr >= b.addr && b.refusals > 0 {
		b.refusals--
		b.cpu.Retry()
		return
	}
	b.ram.Store(addr, size, v)
}

// TestRetryReexecutes checks that a refused load or store leaves PC, the
// registers and Instret as they were, so the next Step executes the
// instruction again, and that the instruction then retires once.
func TestRetryReexecutes(t *testing.T) {
	p := NewProgram(0)
	p.LI(T0, 0x8000)
	lw := p.Base + uint32(len(p.Assemble()))*4
	p.LW(A0, T0, 0)
	p.LI(T1, 7)
	sw := p.Base + uint32(len(p.Assemble()))*4
	p.SW(T1, T0, 4)
	p.ECALL()
	m := newRAM(1 << 16)
	for i, w := range p.Assemble() {
		m.Store(p.Base+uint32(i)*4, 4, w)
	}
	m.Store(0x8000, 4, 42)
	c := &CPU{}
	c.Reset(p.Base)
	b := &stallBus{ram: m, cpu: c, addr: 0x8000}
	step := func() {
		t.Helper()
		if err := c.Step(b); err != nil {
			t.Fatal(err)
		}
	}
	for c.PC != lw {
		step()
	}
	pc, n := c.PC, c.Instret
	b.refusals = 2
	step()
	step()
	if c.PC != pc || c.Instret != n || c.Regs[A0] != 0 {
		t.Fatalf("refused LW moved state: pc %#x→%#x, instret %d→%d, a0 %d", pc, c.PC, n, c.Instret, c.Regs[A0])
	}
	step()
	if c.PC != pc+4 || c.Instret != n+1 || c.Regs[A0] != 42 || b.loads != 3 {
		t.Fatalf("LW after refusals: pc %#x, instret %d, a0 %d, %d loads", c.PC, c.Instret, c.Regs[A0], b.loads)
	}
	for c.PC != sw {
		step()
	}
	pc, n = c.PC, c.Instret
	b.refusals = 1
	step()
	if c.PC != pc || c.Instret != n || m.Load(0x8004, 4) != 0 {
		t.Fatalf("refused SW moved state: pc %#x→%#x, instret %d→%d", pc, c.PC, n, c.Instret)
	}
	step()
	if c.PC != pc+4 || c.Instret != n+1 || m.Load(0x8004, 4) != 7 {
		t.Fatalf("SW after a refusal: pc %#x, instret %d, mem %d", c.PC, c.Instret, m.Load(0x8004, 4))
	}
}
