package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"text/tabwriter"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the ID of the span that caused this one (0 = root).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores a finished span and returns its ID for children to name.
func (t *tracer) record(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Op: op,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}

// rung is one depth of the from-outside ladder: the same operations timed
// at one layer boundary. Children names the rungs whose time is spent
// inside this one.
type rung struct {
	Name     string
	P50us    float64
	Children []string
}

// ladderRow is one line of the ladder table.
type ladderRow struct {
	Name   string
	Selfus float64
}

// ladder turns rung medians into self times: a rung's self time is its
// median minus its children's medians, floored at zero. The rows always
// sum to the top rung: whatever the floors and the medians' failure to
// add leave over lands on the explicit "unattributed" row.
func ladder(top string, rungs []rung) []ladderRow {
	by := map[string]rung{}
	for _, r := range rungs {
		by[r.Name] = r
	}
	var rows []ladderRow
	sum := 0.0
	for _, r := range rungs {
		self := r.P50us
		for _, c := range r.Children {
			self -= by[c].P50us
		}
		if self < 0 {
			self = 0
		}
		rows = append(rows, ladderRow{r.Name, self})
		sum += self
	}
	return append(rows, ladderRow{"unattributed", by[top].P50us - sum})
}

// printLadder writes the table; share is of the top rung.
func printLadder(w io.Writer, title string, top float64, rows []ladderRow) {
	fmt.Fprintf(w, "%s (top rung %.1f us)\n", title, top)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tself_us\tshare\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f%%\t\n", r.Name, r.Selfus, 100*r.Selfus/top)
	}
	tw.Flush()
}
