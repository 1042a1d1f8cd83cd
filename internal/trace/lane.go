package trace

import "sort"

// Lane is a side event stream split into per-edge segments. A producer
// opens a segment with BeginEdge, which stamps it with the edge's
// ordering key — (time << 8) | clock-order — and emits into it with
// EmitOn; MergeLanes then appends the segments to the recorder's stream
// in key order. mc.Replay uses one lane to render a counterexample's
// per-edge channel states into a recorder by simulated time.
type Lane struct {
	r      *Recorder
	events []Event
	marks  []laneMark
}

// laneMark opens one edge segment: events[start:] up to the next mark
// belong to the edge with the given ordering key.
type laneMark struct {
	start int
	key   uint64
}

// NewLane returns a fresh lane feeding this recorder. Lanes created from
// a nil recorder are nil, mirroring Subject.
func (r *Recorder) NewLane() *Lane {
	if r == nil {
		return nil
	}
	return &Lane{r: r}
}

// BeginEdge opens a new segment for the edge at the given time whose
// clock has the given order index; ord breaks ties between coincident
// edges.
func (l *Lane) BeginEdge(time uint64, ord uint32) {
	l.marks = append(l.marks, laneMark{start: len(l.events), key: laneKey(time, ord)})
}

// laneKey packs (time, clock order) into one comparable word. Ord must
// fit in 8 bits.
func laneKey(time uint64, ord uint32) uint64 {
	return time<<8 | uint64(ord)&0xff
}

// EmitOn appends one event to lane l, or to the recorder's default
// stream when l is nil.
//
// Lanes are capped at the recorder's limit; MergeLanes accounts lane
// overflow into the recorder's dropped count, so the merged stream and
// drop total match what direct Emit calls in key order would have
// recorded. (A merged prefix of length ≤ limit can draw at most limit
// events from any one lane, so a per-lane cap at the global limit never
// drops an event that direct emission would have kept.)
func (s *Subject) EmitOn(l *Lane, k Kind, time, cycle, value uint64) {
	if l == nil {
		s.Emit(k, time, cycle, value)
		return
	}
	if limit := s.r.limit; limit > 0 && len(l.events) >= limit {
		return // counted by MergeLanes
	}
	l.events = append(l.events, Event{Subject: s.id, Kind: k, Time: time, Cycle: cycle, Value: value})
}

// MergeLanes appends the lanes' edge segments to the recorder's event
// stream in key order and retires the lanes. Events beyond the
// recorder's limit are dropped and counted, as Emit would.
func (r *Recorder) MergeLanes(lanes []*Lane) {
	type seg struct {
		lane       *Lane
		key        uint64
		start, end int
	}
	var segs []seg
	var total int
	for _, l := range lanes {
		if l == nil {
			continue
		}
		total += len(l.events)
		for i, m := range l.marks {
			end := len(l.events)
			if i+1 < len(l.marks) {
				end = l.marks[i+1].start
			}
			if m.start == end {
				continue
			}
			segs = append(segs, seg{lane: l, key: m.key, start: m.start, end: end})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].key < segs[j].key })
	kept := 0
	for _, sg := range segs {
		for _, e := range sg.lane.events[sg.start:sg.end] {
			if r.limit > 0 && len(r.events) >= r.limit {
				break
			}
			r.events = append(r.events, e)
			kept++
		}
	}
	r.dropped += uint64(total - kept)
	for _, l := range lanes {
		if l != nil {
			l.events, l.marks = nil, nil
		}
	}
}
