package matchlib

import (
	"fmt"

	"repro/internal/connections"
	"repro/internal/sim"
	"repro/internal/stats"
)

// CacheReq is a word access presented to the cache.
type CacheReq struct {
	Write bool
	Addr  int // word address
	Data  uint64
}

// CacheResp answers a read (writes are acknowledged without data).
type CacheResp struct {
	Addr int
	Data uint64
	Hit  bool
}

// MemReq is a line transfer on the cache's memory side.
type MemReq struct {
	Write    bool
	LineAddr int // line-aligned word address
	Data     []uint64
}

// MemResp returns a fetched line.
type MemResp struct {
	LineAddr int
	Data     []uint64
}

// CacheStats counts cache events for tests and power analysis.
type CacheStats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// Cache is the configurable cache module from Table 2: linesize (words),
// capacity (total words) and associativity are parameters. It is
// write-back, write-allocate, with per-set LRU replacement. One request
// port and one response port face the core; a line-wide request/response
// port pair faces backing memory.
type Cache struct {
	Req  *connections.In[CacheReq]
	Rsp  *connections.Out[CacheResp]
	MemQ *connections.Out[MemReq]
	MemP *connections.In[MemResp]

	lineWords int
	sets      int
	ways      int
	lines     [][]cacheLine // [set][way]
	stats     CacheStats
}

type cacheLine struct {
	valid bool
	dirty bool
	tag   int
	data  []uint64
	lru   uint64 // last-touch stamp; smallest is victim
}

// NewCache builds a cache with capacityWords total storage, lineWords per
// line, and the given associativity. capacityWords must be divisible by
// lineWords*ways.
func NewCache(clk *sim.Clock, name string, capacityWords, lineWords, ways int) *Cache {
	if lineWords < 1 || ways < 1 || capacityWords < lineWords*ways {
		panic(fmt.Sprintf("matchlib: bad cache geometry cap=%d line=%d ways=%d", capacityWords, lineWords, ways))
	}
	nLines := capacityWords / lineWords
	if nLines%ways != 0 {
		panic(fmt.Sprintf("matchlib: %d lines not divisible by %d ways", nLines, ways))
	}
	c := &Cache{
		Req:       connections.NewIn[CacheReq](),
		Rsp:       connections.NewOut[CacheResp](),
		MemQ:      connections.NewOut[MemReq](),
		MemP:      connections.NewIn[MemResp](),
		lineWords: lineWords,
		sets:      nLines / ways,
		ways:      ways,
	}
	c.lines = make([][]cacheLine, c.sets)
	for s := range c.lines {
		c.lines[s] = make([]cacheLine, ways)
	}
	clk.Sim().Metrics().Source(name, func(emit stats.Emit) {
		emit("hits", float64(c.stats.Hits))
		emit("misses", float64(c.stats.Misses))
		emit("evictions", float64(c.stats.Evictions))
		emit("writebacks", float64(c.stats.Writebacks))
	})
	var stamp uint64
	clk.Spawn(name+".cache", func(th *sim.Thread) {
		for {
			req := c.Req.Pop(th)
			set := (req.Addr / c.lineWords) % c.sets
			tag := (req.Addr / c.lineWords) / c.sets
			off := req.Addr % c.lineWords

			way := -1
			for w := range c.lines[set] {
				if c.lines[set][w].valid && c.lines[set][w].tag == tag {
					way = w
					break
				}
			}
			hit := way >= 0
			if hit {
				c.stats.Hits++
			} else {
				c.stats.Misses++
				way = c.victim(set)
				v := &c.lines[set][way]
				if v.valid && v.dirty {
					c.stats.Writebacks++
					c.MemQ.Push(th, MemReq{Write: true, LineAddr: c.lineAddr(set, v.tag), Data: append([]uint64(nil), v.data...)})
				}
				if v.valid {
					c.stats.Evictions++
				}
				la := c.lineAddr(set, tag)
				c.MemQ.Push(th, MemReq{LineAddr: la})
				rsp := c.MemP.Pop(th)
				if rsp.LineAddr != la {
					panic(fmt.Sprintf("matchlib: cache fill for line %d got line %d", la, rsp.LineAddr))
				}
				*v = cacheLine{valid: true, tag: tag, data: append([]uint64(nil), rsp.Data...)}
			}
			ln := &c.lines[set][way]
			stamp++
			ln.lru = stamp
			if req.Write {
				ln.data[off] = req.Data
				ln.dirty = true
				c.Rsp.Push(th, CacheResp{Addr: req.Addr, Hit: hit})
			} else {
				c.Rsp.Push(th, CacheResp{Addr: req.Addr, Data: ln.data[off], Hit: hit})
			}
			th.Wait()
		}
	})
	return c
}

// Stats returns the event counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Geometry returns (sets, ways, lineWords).
func (c *Cache) Geometry() (sets, ways, lineWords int) { return c.sets, c.ways, c.lineWords }

func (c *Cache) lineAddr(set, tag int) int {
	return (tag*c.sets + set) * c.lineWords
}

func (c *Cache) victim(set int) int {
	best, bestLRU := 0, ^uint64(0)
	for w := range c.lines[set] {
		if !c.lines[set][w].valid {
			return w
		}
		if c.lines[set][w].lru < bestLRU {
			best, bestLRU = w, c.lines[set][w].lru
		}
	}
	return best
}

// SimpleMemory is a line-oriented backing store with a fixed access
// latency, used behind the Cache and as the SoC's off-chip model.
type SimpleMemory struct {
	Req *connections.In[MemReq]
	Rsp *connections.Out[MemResp]

	Data []uint64
}

// NewSimpleMemory builds a memory of sizeWords with the given latency in
// cycles per access.
func NewSimpleMemory(clk *sim.Clock, name string, sizeWords, lineWords, latency int) *SimpleMemory {
	m := &SimpleMemory{
		Req:  connections.NewIn[MemReq](),
		Rsp:  connections.NewOut[MemResp](),
		Data: make([]uint64, sizeWords),
	}
	clk.Spawn(name+".mem", func(th *sim.Thread) {
		for {
			req := m.Req.Pop(th)
			if req.LineAddr < 0 || req.LineAddr+lineWords > sizeWords {
				panic(fmt.Sprintf("matchlib: memory line %d out of range", req.LineAddr))
			}
			th.WaitN(latency)
			if req.Write {
				copy(m.Data[req.LineAddr:], req.Data)
			} else {
				line := append([]uint64(nil), m.Data[req.LineAddr:req.LineAddr+lineWords]...)
				m.Rsp.Push(th, MemResp{LineAddr: req.LineAddr, Data: line})
			}
			th.Wait()
		}
	})
	return m
}
