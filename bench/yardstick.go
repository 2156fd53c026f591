package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"time"
)

// yardstick measures how fast the machine is at the moment, on the reference
// server. This host drifts between speeds a quarter apart for minutes at a
// time (a shared 2-vCPU VM), and the drift moves every timing of the system
// under test, CPU time included; the same drift moves the yardstick, so a
// timing divided by it repeats where the raw timing does not (README.md has
// the evidence).
type yardstick struct {
	ref        *server
	buf        bytes.Buffer
	echo, work []float64 // latencies in ms since the last reading
}

// The yardstick's latencies on this host in its fast state, where the speed
// factor reads 1.
const (
	echoNominalMs = 0.09
	workNominalMs = 2.1
)

var echoBody = []byte(`{"sql":"select m.title, m.year from MOVIES m where m.id = 4242"}`)

// bursts sends n bursts of reference requests, each 30 echoes and 2 jobs,
// about 8 ms.
func (y *yardstick) bursts(n int) error {
	for i := 0; i < n*32; i++ {
		path, into := "/echo", &y.echo
		if i%32 >= 30 {
			path, into = "/work", &y.work
		}
		start := time.Now()
		status, err := y.ref.exchange(path, echoBody, &y.buf)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("reference server %s: status %d: %v", path, status, err)
		}
		*into = append(*into, time.Since(start).Seconds()*1e3)
	}
	return nil
}

// slowdownExponent is how much of the yardstick's slowdown the system under
// test shares. When the host slows down, the reference server slows down
// more than talkbackd does: over runs in host states from 0.94 to 2.03,
// log(timing) against log(reading) had a slope of 0.75–0.93 on every
// workload and timed metric, in three independent sets of runs (README.md),
// so dividing by the reading itself over-corrects.
const slowdownExponent = 0.85

// speed reads the samples taken since the last reading as the slowdown
// factor timings are divided by: the geometric mean of the median echo and
// the median job over their nominal values, raised to slowdownExponent. An
// exchange-bound request follows the echo, an engine-bound one the job; the
// mean serves both without a per-workload knob.
func (y *yardstick) speed() float64 {
	f := math.Sqrt(median(y.echo) / echoNominalMs * median(y.work) / workNominalMs)
	y.echo, y.work = y.echo[:0], y.work[:0]
	return math.Pow(f, slowdownExponent)
}
