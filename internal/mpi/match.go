package mpi

import "sort"

// postedRecvs is a rank's posted-but-unmatched receives. Exact receives (a
// concrete source and tag) sit in per-(source, tag) FIFO queues linked
// through Request.next, so matching a message against them costs one map
// lookup however many receives are posted — the master of a 10k-rank group
// holds one posted score receive per busy worker. Wildcard receives
// (AnySource and/or AnyTag) stay in one list in posting order; protocols
// post few of them.
//
// A message goes to whichever candidate was posted first: the head of its
// exact queue or the first matching wildcard. That is exactly the receive a
// linear scan of all posted receives in posting order picks, because each
// queue and the wildcard list are themselves in posting order (Request.seq).
type postedRecvs struct {
	exact map[uint64]recvQueue
	wild  []*Request
	n     int // receives posted, across the queues and the list
}

// recvQueue is one (source, tag) FIFO of exact receives; never empty while
// it is in the map.
type recvQueue struct {
	head, tail *Request
}

// matchKey packs an exact (source, tag) pattern into a map key.
func matchKey(source, tag int32) uint64 {
	return uint64(uint32(source))<<32 | uint64(uint32(tag))
}

// exactPattern reports whether q names a concrete source and tag.
func (q *Request) exactPattern() bool {
	return q.source != AnySource && q.tag != AnyTag
}

// len reports how many receives are posted.
func (p *postedRecvs) len() int { return p.n }

// add posts q behind every receive posted before it.
func (p *postedRecvs) add(q *Request) {
	p.n++
	if !q.exactPattern() {
		p.wild = append(p.wild, q)
		return
	}
	if p.exact == nil {
		p.exact = make(map[uint64]recvQueue)
	}
	k := matchKey(q.source, q.tag)
	rq := p.exact[k]
	if rq.tail == nil {
		rq.head = q
	} else {
		rq.tail.next = q
	}
	rq.tail = q
	p.exact[k] = rq
}

// match withdraws and returns the earliest-posted receive m satisfies, or
// nil if none does.
func (p *postedRecvs) match(m *Message) *Request {
	wi := -1
	for i, q := range p.wild {
		if q.matches(m) {
			wi = i
			break
		}
	}
	if len(p.exact) > 0 {
		// Isend keeps tags, and world sizes keep sources, within int32.
		k := matchKey(int32(m.Source), int32(m.Tag))
		if rq, ok := p.exact[k]; ok && (wi < 0 || rq.head.seq < p.wild[wi].seq) {
			q := rq.head
			p.unlink(k, rq, nil, q)
			return q
		}
	}
	if wi < 0 {
		return nil
	}
	q := p.wild[wi]
	p.wild = append(p.wild[:wi], p.wild[wi+1:]...)
	p.n--
	return q
}

// unlink removes q, which follows prev (nil for the head), from queue k.
func (p *postedRecvs) unlink(k uint64, rq recvQueue, prev, q *Request) {
	if prev == nil {
		rq.head = q.next
	} else {
		prev.next = q.next
	}
	if rq.tail == q {
		rq.tail = prev
	}
	q.next = nil
	p.n--
	if rq.head == nil {
		delete(p.exact, k)
		return
	}
	p.exact[k] = rq
}

// remove withdraws the posted receive q (Cancel).
func (p *postedRecvs) remove(q *Request) {
	if !q.exactPattern() {
		for i, x := range p.wild {
			if x == q {
				p.wild = append(p.wild[:i], p.wild[i+1:]...)
				p.n--
				return
			}
		}
		return
	}
	k := matchKey(q.source, q.tag)
	rq := p.exact[k]
	var prev *Request
	for x := rq.head; x != nil; prev, x = x, x.next {
		if x == q {
			p.unlink(k, rq, prev, q)
			return
		}
	}
}

// drain withdraws every posted receive and returns them in posting order
// (Kill cancels them in that order).
func (p *postedRecvs) drain() []*Request {
	out := append([]*Request(nil), p.wild...)
	for _, rq := range p.exact {
		for q := rq.head; q != nil; {
			next := q.next
			q.next = nil
			out = append(out, q)
			q = next
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	clear(p.exact)
	p.wild = nil
	p.n = 0
	return out
}
