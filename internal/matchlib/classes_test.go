package matchlib

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// --- FIFO ---

func TestFIFOBasics(t *testing.T) {
	f := NewFIFO[int](3)
	if !f.Empty() || f.Full() || f.Cap() != 3 {
		t.Fatal("fresh FIFO state wrong")
	}
	f.Push(1)
	f.Push(2)
	f.Push(3)
	if !f.Full() {
		t.Fatal("not full after 3 pushes")
	}
	if f.Peek() != 1 || f.At(2) != 3 {
		t.Fatal("Peek/At wrong")
	}
	if f.Pop() != 1 || f.Pop() != 2 || f.Pop() != 3 {
		t.Fatal("pop order wrong")
	}
	if !f.Empty() {
		t.Fatal("not empty after draining")
	}
}

func TestFIFOWrapAround(t *testing.T) {
	f := NewFIFO[int](2)
	for i := 0; i < 100; i++ {
		f.Push(i)
		if got := f.Pop(); got != i {
			t.Fatalf("wrap: got %d want %d", got, i)
		}
	}
}

func TestFIFOPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"pop-empty":  func() { NewFIFO[int](1).Pop() },
		"peek-empty": func() { NewFIFO[int](1).Peek() },
		"push-full":  func() { f := NewFIFO[int](1); f.Push(0); f.Push(1) },
		"bad-cap":    func() { NewFIFO[int](0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		})
	}
}

// Property: FIFO behaves like a slice queue under random op sequences.
func TestFIFOModelProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for iter := 0; iter < 200; iter++ {
		cap := 1 + r.Intn(8)
		f := NewFIFO[int](cap)
		var model []int
		for op := 0; op < 500; op++ {
			if r.Intn(2) == 0 && !f.Full() {
				v := r.Int()
				f.Push(v)
				model = append(model, v)
			} else if !f.Empty() {
				if got, want := f.Pop(), model[0]; got != want {
					t.Fatalf("pop mismatch: %d vs %d", got, want)
				}
				model = model[1:]
			}
			if f.Len() != len(model) {
				t.Fatalf("len mismatch: %d vs %d", f.Len(), len(model))
			}
		}
	}
}

// --- Arbiter ---

func TestArbiterRoundRobinFairness(t *testing.T) {
	a := NewArbiter(4)
	all := uint64(0b1111)
	counts := make([]int, 4)
	var prev int = -1
	for i := 0; i < 400; i++ {
		g := a.Pick(all)
		if g < 0 || g > 3 {
			t.Fatalf("grant %d out of range", g)
		}
		if prev >= 0 && g != (prev+1)%4 {
			t.Fatalf("not round-robin: %d after %d", g, prev)
		}
		prev = g
		counts[g]++
	}
	for i, c := range counts {
		if c != 100 {
			t.Fatalf("requester %d granted %d/400 — unfair", i, c)
		}
	}
}

func TestArbiterSkipsIdle(t *testing.T) {
	a := NewArbiter(4)
	if g := a.Pick(0b1000); g != 3 {
		t.Fatalf("grant %d, want 3", g)
	}
	if g := a.Pick(0); g != -1 {
		t.Fatalf("grant %d on empty mask, want -1", g)
	}
	if m := a.PickOneHot(0b0101); m == 0 || m&(m-1) != 0 {
		t.Fatalf("PickOneHot returned non-one-hot %b", m)
	}
}

// Pick grants exactly what a scan from the rotating priority does: the
// first requester at or after next, wrapping around, over widths up to
// 64 and sparse and dense masks.
func TestArbiterPickMatchesPriorityScan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 10, 31, 63, 64} {
		a := NewArbiter(n)
		next := 0
		for step := 0; step < 2000; step++ {
			req := r.Uint64()
			if step%3 == 0 {
				req &= r.Uint64() & r.Uint64() // sparse
			}
			want := -1
			for off := 0; off < n; off++ {
				if i := (next + off) % n; req&(1<<uint(i)) != 0 {
					want, next = i, (i+1)%n
					break
				}
			}
			if got := a.Pick(req); got != want {
				t.Fatalf("n=%d step %d: Pick(%b) = %d, want %d", n, step, req, got, want)
			}
		}
	}
}

// Property: every grant is a requester, and any continuously-requesting
// input is granted within N picks (no starvation).
func TestArbiterNoStarvationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for iter := 0; iter < 100; iter++ {
		n := 1 + r.Intn(16)
		a := NewArbiter(n)
		persistent := r.Intn(n)
		sinceGrant := 0
		for step := 0; step < 500; step++ {
			req := r.Uint64() | 1<<uint(persistent)
			g := a.Pick(req)
			if g < 0 || req&(1<<uint(g)) == 0 {
				t.Fatalf("granted non-requester %d (mask %b)", g, req)
			}
			if g == persistent {
				sinceGrant = 0
			} else {
				sinceGrant++
				if sinceGrant > n {
					t.Fatalf("requester %d starved for %d picks (n=%d)", persistent, sinceGrant, n)
				}
			}
		}
	}
}

func TestOneHotEncodeDecode(t *testing.T) {
	for i := 0; i < 64; i++ {
		m := OneHotEncode(i, 64)
		idx, ok := OneHotDecode(m)
		if !ok || idx != i {
			t.Fatalf("decode(encode(%d)) = %d,%v", i, idx, ok)
		}
	}
	if _, ok := OneHotDecode(0); ok {
		t.Fatal("decode(0) ok")
	}
	if _, ok := OneHotDecode(0b11); ok {
		t.Fatal("decode(0b11) ok")
	}
}

func TestPriorityEncode(t *testing.T) {
	if PriorityEncode(0) != -1 {
		t.Fatal("PriorityEncode(0)")
	}
	if PriorityEncode(0b101000) != 3 {
		t.Fatalf("PriorityEncode(0b101000) = %d", PriorityEncode(0b101000))
	}
}

// --- MemArray ---

func TestMemArrayReadWrite(t *testing.T) {
	m := NewMemArray[uint64](64, 4)
	m.Write(17, 0xdead)
	if m.Read(17) != 0xdead {
		t.Fatal("read-after-write failed")
	}
	if m.BankOf(17) != 1 {
		t.Fatalf("BankOf(17) = %d, want 1", m.BankOf(17))
	}
	r, w := m.Accesses()
	if r != 1 || w != 1 {
		t.Fatalf("accesses = %d,%d", r, w)
	}
}

func TestMemArrayBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-dividing banks")
		}
	}()
	NewMemArray[int](10, 3)
}

// --- Vector ---

func TestVectorOps(t *testing.T) {
	a := Vector[int32]{1, 2, 3, 4}
	b := Vector[int32]{10, 20, 30, 40}
	if got := a.Add(b); got[3] != 44 {
		t.Fatalf("Add = %v", got)
	}
	if got := b.Sub(a); got[0] != 9 {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Mul(b); got[2] != 90 {
		t.Fatalf("Mul = %v", got)
	}
	if got := a.Mac(b, Vector[int32]{1, 1, 1, 1}); got[1] != 41 {
		t.Fatalf("Mac = %v", got)
	}
	if got := a.Dot(b); got != 10+40+90+160 {
		t.Fatalf("Dot = %d", got)
	}
	if got := a.Reduce(); got != 10 {
		t.Fatalf("Reduce = %d", got)
	}
	if got := a.Scale(3); got[3] != 12 {
		t.Fatalf("Scale = %v", got)
	}
	if got := (Vector[int32]{3, 9, 1, 7}).Max(); got != 9 {
		t.Fatalf("Max = %d", got)
	}
	if got := (Vector[int32]{3, 9, 1, 7}).ArgMin(); got != 2 {
		t.Fatalf("ArgMin = %d", got)
	}
}

func TestVectorDotMatchesMacReduce(t *testing.T) {
	if err := quick.Check(func(xs, ys []int32) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		a, b := Vector[int32](xs[:n]), Vector[int32](ys[:n])
		return a.Dot(b) == a.Mul(b).Reduce()
	}, nil); err != nil {
		t.Error(err)
	}
}

// --- Crossbar functions ---

func TestCrossbarDstLoop(t *testing.T) {
	in := []string{"a", "b", "c", "d"}
	out := CrossbarDstLoop(in, []int{3, 2, 1, 0})
	want := []string{"d", "c", "b", "a"}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
}

func TestCrossbarSrcLoopPriority(t *testing.T) {
	// Two inputs targeting output 0: the later source must win (the
	// priority-chain semantics the paper's HLS discussion hinges on).
	out := CrossbarSrcLoop([]int{7, 8}, []int{0, 0}, 2)
	if out[0] != 8 {
		t.Fatalf("out[0] = %d, want 8 (later source wins)", out[0])
	}
	if out[1] != 0 {
		t.Fatalf("out[1] = %d, want zero value", out[1])
	}
}

// Property: on a permutation, src-loop and dst-loop produce the same
// routing (they only differ under conflicts).
func TestCrossbarLoopsAgreeOnPermutations(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for iter := 0; iter < 200; iter++ {
		n := 1 + r.Intn(32)
		perm := r.Perm(n) // dst[src]
		in := make([]int, n)
		for i := range in {
			in[i] = r.Int()
		}
		bySrc := CrossbarSrcLoop(in, perm, n)
		inv := make([]int, n) // src[dst]
		for s, d := range perm {
			inv[d] = s
		}
		byDst := CrossbarDstLoop(in, inv)
		for i := range bySrc {
			if bySrc[i] != byDst[i] {
				t.Fatalf("n=%d output %d differs", n, i)
			}
		}
		viaPermute := Permute(in, inv)
		for i := range viaPermute {
			if viaPermute[i] != byDst[i] {
				t.Fatalf("Permute disagrees at %d", i)
			}
		}
	}
}

func TestPermuteRejectsNonPermutation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Permute([]int{1, 2}, []int{0, 0})
}

// --- ReorderBuffer ---

func TestReorderBufferInOrderDrain(t *testing.T) {
	r := NewReorderBuffer[string](4)
	t0 := r.Allocate()
	t1 := r.Allocate()
	t2 := r.Allocate()
	if r.CanPop() {
		t.Fatal("CanPop before any write")
	}
	r.Write(t2, "c") // out of order
	r.Write(t0, "a")
	if !r.CanPop() {
		t.Fatal("head written but CanPop false")
	}
	if got := r.Pop(); got != "a" {
		t.Fatalf("Pop = %q", got)
	}
	if r.CanPop() {
		t.Fatal("t1 unwritten but CanPop true")
	}
	r.Write(t1, "b")
	if r.Pop() != "b" || r.Pop() != "c" {
		t.Fatal("drain order wrong")
	}
}

func TestReorderBufferDoubleWritePanics(t *testing.T) {
	r := NewReorderBuffer[int](2)
	tag := r.Allocate()
	r.Write(tag, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.Write(tag, 2)
}

// Property: random allocate/write/pop sequences drain in allocation order.
func TestReorderBufferProperty(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for iter := 0; iter < 100; iter++ {
		capN := 1 + r.Intn(8)
		rob := NewReorderBuffer[int](capN)
		next := 0      // next value to allocate
		expect := 0    // next value the consumer must see
		var open []Tag // allocated, unwritten tags with their values
		var vals []int
		for step := 0; step < 300; step++ {
			switch r.Intn(3) {
			case 0:
				if rob.CanAllocate() {
					open = append(open, rob.Allocate())
					vals = append(vals, next)
					next++
				}
			case 1:
				if len(open) > 0 {
					i := r.Intn(len(open))
					rob.Write(open[i], vals[i])
					open = append(open[:i], open[i+1:]...)
					vals = append(vals[:i], vals[i+1:]...)
				}
			case 2:
				if rob.CanPop() {
					if got := rob.Pop(); got != expect {
						t.Fatalf("popped %d, want %d", got, expect)
					}
					expect++
				}
			}
		}
	}
}
