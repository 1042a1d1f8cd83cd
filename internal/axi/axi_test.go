package axi

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/connections"
	"repro/internal/sim"
)

// runLimit bounds every run here at 100,000 cycles of the 1000 ps test
// clock; the longest run stops at cycle 329.
const runLimit = 100_000 * 1000

// run steps s until a master stops it and fails the test when none has
// within runLimit, so that a process parked forever (a lost wake-up)
// fails in milliseconds rather than at the test binary's timeout.
func run(t *testing.T, s *sim.Simulator) {
	t.Helper()
	s.Run(runLimit)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if !s.Stopped() {
		t.Fatalf("no master stopped the run within %d ps", runLimit)
	}
}

func TestSingleMasterMemSlave(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	m := NewMaster()
	slv := NewMemSlave(clk, "mem", 256)
	Connect(clk, "bus", 2, m, slv.Port)

	clk.Spawn("master", func(th *sim.Thread) {
		if !m.WriteBurst(th, 1, 16, []uint64{10, 20, 30, 40}) {
			t.Error("write burst failed")
		}
		data, ok := m.ReadBurst(th, 2, 16, 4)
		if !ok {
			t.Error("read burst failed")
		}
		for i, want := range []uint64{10, 20, 30, 40} {
			if data[i] != want {
				t.Errorf("beat %d = %d, want %d", i, data[i], want)
			}
		}
		// Out-of-range access reports not-OK.
		if _, ok := m.ReadBurst(th, 3, 1000, 1); ok {
			t.Error("out-of-range read reported OK")
		}
		th.Sim().Stop()
	})
	run(t, s)
}

func TestInterconnectAddressDecode(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	ic := NewInterconnect(clk, "ic", 1, []Region{
		{Base: 0x000, Size: 0x100, Slave: 0},
		{Base: 0x100, Size: 0x100, Slave: 1},
	})
	m := NewMaster()
	Connect(clk, "m0", 2, m, ic.MasterPorts[0])
	s0 := NewMemSlave(clk, "s0", 0x100)
	s1 := NewMemSlave(clk, "s1", 0x100)
	Connect(clk, "b0", 2, ic.SlavePorts[0], s0.Port)
	Connect(clk, "b1", 2, ic.SlavePorts[1], s1.Port)

	clk.Spawn("master", func(th *sim.Thread) {
		m.WriteBurst(th, 1, 0x010, []uint64{111})
		m.WriteBurst(th, 2, 0x110, []uint64{222})
		a, _ := m.ReadBurst(th, 3, 0x010, 1)
		b, _ := m.ReadBurst(th, 4, 0x110, 1)
		if a[0] != 111 || b[0] != 222 {
			t.Errorf("decode wrong: got %d,%d", a[0], b[0])
		}
		th.Sim().Stop()
	})
	run(t, s)
	// Address translation: slave 1 must have the data at local 0x10.
	if got := s1.Mem.Read(0x10); got != 222 {
		t.Fatalf("slave1 local 0x10 = %d, want 222", got)
	}
}

func TestInterconnectMultiMasterContention(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	const nm = 3
	ic := NewInterconnect(clk, "ic", nm, []Region{{Base: 0, Size: 1024, Slave: 0}})
	slv := NewMemSlave(clk, "mem", 1024)
	Connect(clk, "bus", 2, ic.SlavePorts[0], slv.Port)

	done := 0
	for i := 0; i < nm; i++ {
		i := i
		m := NewMaster()
		Connect(clk, fmt.Sprintf("m%d", i), 2, m, ic.MasterPorts[i])
		clk.Spawn(fmt.Sprintf("master%d", i), func(th *sim.Thread) {
			base := i * 64
			for k := 0; k < 20; k++ {
				if !m.WriteBurst(th, i, base+k, []uint64{uint64(i*1000 + k)}) {
					t.Errorf("master %d write %d failed", i, k)
				}
				th.Wait()
			}
			for k := 0; k < 20; k++ {
				data, ok := m.ReadBurst(th, i, base+k, 1)
				if !ok || data[0] != uint64(i*1000+k) {
					t.Errorf("master %d read %d = %v,%v", i, k, data, ok)
				}
				th.Wait()
			}
			done++
			if done == nm {
				th.Sim().Stop()
			}
			th.Wait()
		})
	}
	run(t, s)
	if done != nm {
		t.Fatalf("%d/%d masters completed", done, nm)
	}
	// The stop cycle pins the round-robin arbitration of the three
	// masters: any change to when the bus threads pick a request moves it.
	if got, want := clk.Cycle(), uint64(225); got != want {
		t.Fatalf("stopped at cycle %d, want %d", got, want)
	}
}

func TestBridge(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	br := NewBridge(clk, "br", 7)
	slv := NewMemSlave(clk, "mem", 64)
	Connect(clk, "bus", 2, br.Port, slv.Port)

	reqOut := connections.NewOut[Req]()
	rspIn := connections.NewIn[Resp]()
	connections.Buffer(clk, "req", 2, reqOut, br.Req)
	connections.Buffer(clk, "rsp", 2, br.Rsp, rspIn)

	clk.Spawn("driver", func(th *sim.Thread) {
		reqOut.Push(th, Req{Write: true, Addr: 5, Data: 99})
		if r := rspIn.Pop(th); !r.OK {
			t.Error("bridge write failed")
		}
		reqOut.Push(th, Req{Addr: 5})
		if r := rspIn.Pop(th); !r.OK || r.Data != 99 {
			t.Errorf("bridge read = %+v", r)
		}
		th.Sim().Stop()
	})
	run(t, s)
}

// Property: randomized master programs against an interconnect with
// disjoint address windows behave like flat per-master memories, under
// stall injection.
func TestInterconnectRandomProperty(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	// Each iteration's stop cycle (2, 3 and 3 masters) pins arbitration
	// against stalled slave buses.
	stopCycles := []uint64{207, 215, 219}
	for iter := 0; iter < 3; iter++ {
		nm := 2 + r.Intn(2)
		stall := connections.WithStall(0.2, int64(iter))
		if got, want := runRandomPrograms(t, iter, nm, []connections.Option{stall}, nil), stopCycles[iter]; got != want {
			t.Fatalf("iter %d: stopped at cycle %d, want %d", iter, got, want)
		}
	}
}

// The same property with every link, master side included, in the
// signal-accurate model under stall injection: a stall can withhold the
// request head a bus thread has peeked while its handshake charges a
// Wait, and the thread must still forward that request, not a zero one.
func TestInterconnectSignalAccurateStalls(t *testing.T) {
	for iter := 0; iter < 3; iter++ {
		opts := []connections.Option{
			connections.WithMode(connections.ModeSignalAccurate),
			connections.WithStall(0.2, int64(iter)),
		}
		runRandomPrograms(t, iter, 3, opts, opts)
	}
}

// runRandomPrograms runs nm masters, each with 30 random single-word
// reads and writes to its own stripe of two 256-word slaves, checks every
// read against a per-master model and returns the cycle the run stopped
// at. busOpts apply to the slave buses, masterOpts to the master links.
func runRandomPrograms(t *testing.T, iter, nm int, busOpts, masterOpts []connections.Option) uint64 {
	t.Helper()
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	ic := NewInterconnect(clk, "ic", nm, []Region{
		{Base: 0, Size: 256, Slave: 0},
		{Base: 256, Size: 256, Slave: 1},
	})
	for j, slv := range []*MemSlave{NewMemSlave(clk, "s0", 256), NewMemSlave(clk, "s1", 256)} {
		Connect(clk, fmt.Sprintf("b%d", j), 2, ic.SlavePorts[j], slv.Port, busOpts...)
	}
	done := 0
	for i := 0; i < nm; i++ {
		i := i
		m := NewMaster()
		Connect(clk, fmt.Sprintf("m%d", i), 2, m, ic.MasterPorts[i], masterOpts...)
		// Master-private stripe across both slaves.
		model := map[int]uint64{}
		rr := rand.New(rand.NewSource(int64(iter*10 + i)))
		clk.Spawn(fmt.Sprintf("master%d", i), func(th *sim.Thread) {
			for k := 0; k < 30; k++ {
				addr := rr.Intn(512/nm) + i*(512/nm)
				if rr.Intn(2) == 0 {
					v := rr.Uint64()
					if !m.WriteBurst(th, i, addr, []uint64{v}) {
						t.Errorf("write failed at %d", addr)
					}
					model[addr] = v
				} else {
					data, ok := m.ReadBurst(th, i, addr, 1)
					if !ok {
						t.Errorf("read failed at %d", addr)
					} else if want, seen := model[addr]; seen && data[0] != want {
						t.Errorf("master %d addr %d = %d, want %d", i, addr, data[0], want)
					}
				}
				th.Wait()
			}
			done++
			if done == nm {
				th.Sim().Stop()
			}
			th.Wait()
		})
	}
	run(t, s)
	if done != nm {
		t.Fatalf("iter %d: %d/%d masters completed", iter, done, nm)
	}
	return clk.Cycle()
}
