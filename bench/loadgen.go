package main

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// client is one connection's closed world: its request stream, its backend
// and the FIFO of instances it has placed. After each placement it removes
// its oldest instances until it is back within budget, so the fleet holds
// steady at the configured occupancy.
type client struct {
	be     backend
	st     *stream
	budget int
	fifo   []ref

	attempted, failed int
	firstErr          error

	// A traced run sets tr: every request is recorded as a span named
	// span, under parents[i] for the i-th request when parents is set, and
	// ids collects the spans recorded so the rung below can hang under them.
	tr      *tracer
	span    string
	parents []int
	ids     []int
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// phaseRec is what one client records during one timed phase. Latencies
// are in microseconds; due and done hold each successful operation's due
// and completion offsets from the phase start in seconds.
type phaseRec struct {
	opUS      []float64
	kinds     []reqKind // of each successful operation, in opUS order
	placed    int       // instances the successful operations added
	unplaceUS []float64
	lateUS    []float64
	due, done []float64
	ops       int // successful operations
}

func (p *phaseRec) merge(q *phaseRec) {
	p.opUS = append(p.opUS, q.opUS...)
	p.kinds = append(p.kinds, q.kinds...)
	p.placed += q.placed
	p.unplaceUS = append(p.unplaceUS, q.unplaceUS...)
	p.lateUS = append(p.lateUS, q.lateUS...)
	p.due = append(p.due, q.due...)
	p.done = append(p.done, q.done...)
	p.ops += q.ops
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// step runs one operation due at the given time: the next request of the
// stream, timed from due to completion, then removals back to budget.
func (c *client) step(ctx context.Context, phaseStart, due time.Time, rec *phaseRec) {
	r := c.st.next()
	err := c.be.prepare(r)
	start := time.Now()
	c.attempted++
	var refs []ref
	if err == nil {
		refs, err = c.be.place(ctx, r)
	}
	end := time.Now()
	if err != nil {
		c.fail(err)
	} else {
		c.fifo = append(c.fifo, refs...)
		if rec != nil {
			rec.ops++
			rec.placed += len(refs)
			rec.opUS = append(rec.opUS, us(end.Sub(due)))
			rec.kinds = append(rec.kinds, r.kind)
			rec.lateUS = append(rec.lateUS, us(start.Sub(due)))
			rec.due = append(rec.due, due.Sub(phaseStart).Seconds())
			rec.done = append(rec.done, end.Sub(phaseStart).Seconds())
		}
	}
	parent := 0
	if c.tr != nil {
		op := len(c.ids)
		if op < len(c.parents) {
			parent = c.parents[op]
		}
		c.ids = append(c.ids, c.tr.record(c.span, parent, op, start, end))
	}
	c.trim(ctx, c.budget, rec, parent)
}

// trim removes the oldest instances until at most keep remain.
func (c *client) trim(ctx context.Context, keep int, rec *phaseRec, parent int) {
	for len(c.fifo) > keep {
		old := c.fifo[0]
		c.fifo = c.fifo[1:]
		start := time.Now()
		c.attempted++
		err := c.be.unplace(ctx, old)
		end := time.Now()
		if err != nil {
			c.fail(err)
		} else if rec != nil {
			rec.unplaceUS = append(rec.unplaceUS, us(end.Sub(start)))
		}
		if c.tr != nil {
			c.tr.record(c.span+".unplace", parent, len(c.ids)-1, start, end)
		}
	}
}

// fill places until the client holds its budget.
func (c *client) fill(ctx context.Context) error {
	for len(c.fifo) < c.budget {
		before := c.failed
		c.step(ctx, time.Now(), time.Now(), nil)
		if c.failed > before {
			return fmt.Errorf("fill: %w", c.firstErr)
		}
	}
	return nil
}

// openLoop issues n operations on a fixed schedule, one every interval,
// whatever the system's speed: an operation that cannot start on time
// starts as soon as the previous one is done and is still timed from when
// it was due, so a stall shows in the latency of the requests behind it.
func (c *client) openLoop(ctx context.Context, start time.Time, interval time.Duration, n int, rec *phaseRec) {
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		c.step(ctx, start, due, rec)
	}
}

// closedLoop issues operations back to back until the deadline, or until
// maxOps when that is positive.
func (c *client) closedLoop(ctx context.Context, start time.Time, dur time.Duration, maxOps int, rec *phaseRec) {
	deadline := start.Add(dur)
	for i := 0; ctx.Err() == nil; i++ {
		now := time.Now()
		if !now.Before(deadline) || (maxOps > 0 && i >= maxOps) {
			return
		}
		c.step(ctx, start, now, rec)
	}
}

// runClients runs fn once per client, each on its own goroutine, and waits.
func runClients(clients []*client, fn func(i int, c *client) *phaseRec) *phaseRec {
	recs := make([]*phaseRec, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			recs[i] = fn(i, c)
		}(i, c)
	}
	wg.Wait()
	total := &phaseRec{}
	for _, r := range recs {
		total.merge(r)
	}
	return total
}
