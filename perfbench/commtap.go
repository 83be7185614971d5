package main

import (
	"encoding/gob"
	"sync"

	"repro/internal/comm"
)

// commTap counts and times the sends of every comm.Transport the
// benchmark hands to the central and the agents. Untraced it only
// counts the central's plan sends (the reports the central expects);
// traced it times every send, measures its gob size and records spans.
type commTap struct {
	mu        sync.Mutex
	tr        *tracer // nil = untraced
	probe     *probe  // the central's policy probe, for plan timing
	planSends int     // central RoundPlan sends that succeeded
	retries   int

	sends     int
	sendMS    []float64
	reportMS  []float64 // agent RoundReport sends
	wireBytes int64
}

// onRetry is installed as comm.RetryPolicy.OnRetry on every sender.
func (c *commTap) onRetry(int, error) {
	c.mu.Lock()
	c.retries++
	c.mu.Unlock()
}

// wrap returns a transport that reports its sends to the tap. tid
// names the sender in the span file: 1 for the central, 2+i for agent i.
func (c *commTap) wrap(tr comm.Transport, tid int) *tappedTransport {
	t := &tappedTransport{Transport: tr, tap: c, tid: tid}
	if c.tr != nil {
		// One encoder per endpoint, as on a TCP connection: gob sends
		// type descriptions once per stream, not once per message.
		t.enc = gob.NewEncoder(&t.bytes)
	}
	return t
}

type tappedTransport struct {
	comm.Transport
	tap   *commTap
	tid   int
	enc   *gob.Encoder
	bytes byteCounter
}

type byteCounter int64

func (b *byteCounter) Write(p []byte) (int, error) {
	*b += byteCounter(len(p))
	return len(p), nil
}

func (t *tappedTransport) Send(to string, e comm.Envelope) error {
	c := t.tap
	if c.tr == nil {
		err := t.Transport.Send(to, e)
		if _, plan := e.Msg.(comm.RoundPlan); plan && t.tid == 1 && err == nil {
			c.mu.Lock()
			c.planSends++
			c.mu.Unlock()
		}
		return err
	}
	start := wallNow()
	err := t.Transport.Send(to, e)
	end := wallNow()

	before := t.bytes
	encErr := t.enc.Encode(&e)
	round := 0
	name := "comm.send"
	switch m := e.Msg.(type) {
	case comm.RoundPlan:
		round = m.Round
		if t.tid == 1 {
			c.probe.notePlanSend(start, end)
		}
	case comm.RoundReport:
		round = m.Round
		name = "agent.report_send"
	}
	parent := -1
	if t.tid == 1 {
		parent = c.probe.root
	}
	c.tr.add(name, parent, round, t.tid, start, end)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.sends++
	c.sendMS = append(c.sendMS, ms(end.Sub(start)))
	if encErr == nil {
		c.wireBytes += int64(t.bytes - before)
	}
	switch e.Msg.(type) {
	case comm.RoundPlan:
		if t.tid == 1 && err == nil {
			c.planSends++
		}
	case comm.RoundReport:
		c.reportMS = append(c.reportMS, ms(end.Sub(start)))
	}
	return err
}
