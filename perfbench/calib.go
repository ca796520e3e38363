package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"time"
)

// The host's speed is not constant. On a shared two-vCPU host, identical
// passes run up to 1.5x slower for minutes at a time, as neighbouring tenants
// take the host's cores (steal time) or share its caches and memory; a whole
// run can fall inside one such episode, so no statistic over the program's
// own times removes it. A run therefore also times a fixed reference kernel
// of the benchmark's own, before the first setup, after each setup and after
// each chunk of timed ops, and reports every time at the reference host's
// speed: divided by the run's slowdown, the mean kernel time over refNominal.
//
// The kernel is JSON encode, strict decode and SHA-256 round trips of a
// small document, standard-library code that no change to the program can
// speed up or slow down, so a program change still moves the reported times
// by its full amount. Of the kernels tried, its time followed the host's
// episodes most closely for all three workloads, the annealer's included; a
// compute-bound random walk over a table followed them less well.

// refReps is one kernel call's fixed work, and refNominal its time on the
// reference host (2-vCPU Intel Xeon, Go 1.24), the speed all timings are
// reported at.
const (
	refReps    = 1000
	refNominal = 15 * time.Millisecond
)

// chunkSec is about how much timed work runs between two kernel calls.
const chunkSec = 0.25

// refDoc is the kernel's document, shaped like a solve response.
type refDoc struct {
	Name    string    `json:"name"`
	N       int       `json:"n"`
	C       int       `json:"c"`
	Express [][2]int  `json:"express"`
	Lat     []float64 `json:"lat"`
	Note    string    `json:"note"`
}

// refKernel is the reference kernel: reps JSON encode, strict decode and
// SHA-256 round trips of doc.
func refKernel(doc *refDoc, reps int) byte {
	var sink byte
	for r := 0; r < reps; r++ {
		b, err := json.Marshal(doc)
		if err != nil {
			panic(err) // a plain struct always marshals
		}
		var back refDoc
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			panic(err) // its own encoding always decodes
		}
		sum := sha256.Sum256(b)
		sink ^= sum[0] ^ byte(back.N)
	}
	return sink
}

// calibrator runs the reference kernel and keeps the run's kernel times.
type calibrator struct {
	doc   refDoc
	sink  byte // keeps the kernel's result live
	times []time.Duration
}

func newCalibrator() *calibrator {
	c := &calibrator{doc: refDoc{Name: "reference", N: 16, C: 8, Note: "calibration"}}
	for i := 0; i < 12; i++ {
		c.doc.Express = append(c.doc.Express, [2]int{i, i + 3})
		c.doc.Lat = append(c.doc.Lat, float64(i)*1.37)
	}
	return c
}

// measure runs the kernel once and records its wall time.
func (c *calibrator) measure() {
	start := time.Now()
	c.sink ^= refKernel(&c.doc, refReps)
	c.times = append(c.times, time.Since(start))
}

// slowdown is the run's host slowdown: the mean kernel time over refNominal.
// The mean, not the median, because the program's times include every stall
// the kernel's do, in proportion.
func (c *calibrator) slowdown() float64 {
	var sum time.Duration
	for _, d := range c.times {
		sum += d
	}
	return float64(sum) / float64(len(c.times)) / float64(refNominal)
}

// scaled returns d divided by the slowdown f.
func scaled(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) / f)
}
