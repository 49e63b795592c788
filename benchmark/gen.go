package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"
)

// population is one tenant's simulated users: every report the benchmark
// will ever send for that tenant, generated and perturbed during set-up.
type population struct {
	sp      spec
	est     estimator
	groups  []group
	entries []entry // one per user, in id order
	reports int
}

// honest value range and attack of the simulated population: values
// uniform on [-0.5, 0.1], a gamma share of users colluding in a biased
// Byzantine attack uniform on [C/2, C].
const (
	honestLo, honestHi = -0.5, 0.1
)

// genPopulation simulates users 0..users-1 of a tenant with spec sp. User
// i joins group i mod h and reports Reports times; ids derive from the
// seed, so two seeds do not share users. The same (sp, seed, users, gamma)
// always yields the same population.
func genPopulation(sp spec, seed, stream uint64, users int, gamma float64) (*population, error) {
	est, err := buildEstimator(sp)
	if err != nil {
		return nil, err
	}
	p := &population{sp: sp, est: est, groups: est.Groups(), entries: make([]entry, users)}
	h := len(p.groups)
	freq := sp.K > 0
	mechs := make([]perturber, h)
	perUser := 0
	for g, grp := range p.groups {
		if freq {
			mechs[g], err = newKRR(grp.Eps, sp.K)
		} else {
			mechs[g], err = newPM(grp.Eps)
		}
		if err != nil {
			return nil, err
		}
		perUser += grp.Reports
	}
	r := newRand(seed, stream)
	arena := make([]float64, 0, (users/h+1)*perUser)
	// The seed enters the ids as eight hex digits of its hash: ids, and
	// with them body sizes and the live heap, are the same length whatever
	// the seed's magnitude.
	prefix := fmt.Sprintf("s%08x.%d.u", uint32(seed*0x9E3779B97F4A7C15>>32), stream)
	for i := range p.entries {
		g := i % h
		n := p.groups[g].Reports
		lo := len(arena)
		byz := r.Float64() < gamma
		switch {
		case freq && byz:
			for k := 0; k < n; k++ {
				arena = append(arena, float64(sp.K-1))
			}
		case freq:
			// Honest categories follow a Zipf-like law over the k classes.
			c := int(float64(sp.K) * r.Float64() * r.Float64())
			for k := 0; k < n; k++ {
				arena = append(arena, float64(mechs[g].perturbCat(r, c)))
			}
		case byz:
			c := mechs[g].bound()
			for k := 0; k < n; k++ {
				arena = append(arena, c/2+c/2*r.Float64())
			}
		default:
			v := honestLo + (honestHi-honestLo)*r.Float64()
			for k := 0; k < n; k++ {
				arena = append(arena, mechs[g].perturb(r, v))
			}
		}
		p.entries[i] = entry{
			User:   prefix + pad7(i),
			Group:  g,
			Values: arena[lo:len(arena):len(arena)],
		}
		p.reports += n
	}
	return p, nil
}

// pad7 renders i zero-padded to seven digits, so consecutive ids share
// all but their last bytes (what the frame format's front coding expects
// of real id streams).
func pad7(i int) string {
	s := strconv.Itoa(i)
	for len(s) < 7 {
		s = "0" + s
	}
	return s
}

// request is one pre-encoded ingest request body.
type request struct {
	body    []byte
	lenLine []byte // "Content-Length: n\r\n\r\n", pre-rendered
	ack     []byte // what the reply must start with: every report accepted
	reports int
	// batches are the engine batches the body carries, in order: one per
	// frame (one for a whole JSON body). frames are the matching raw
	// frames inside body (nil for JSON).
	batches [][]entry
	frames  [][]byte
}

func newRequest(body []byte, batches [][]entry) request {
	rq := request{
		body:    body,
		lenLine: []byte("Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n"),
		batches: batches,
	}
	for _, b := range batches {
		rq.reports += countReports(b)
	}
	rq.ack = []byte(`{"accepted":` + strconv.Itoa(rq.reports) + `,"rejected":0`)
	return rq
}

func countReports(es []entry) int {
	n := 0
	for i := range es {
		n += len(es[i].Values)
	}
	return n
}

// encodeFrames packs entries into binary ingest requests: frames of
// usersPerFrame users, framesPerReq frames per request. One frame per
// request is sent as a bare frame, several as a length-prefixed stream.
func encodeFrames(es []entry, usersPerFrame, framesPerReq int) ([]request, error) {
	var enc frameEncoder
	var reqs []request
	seq := uint64(0)
	for lo := 0; lo < len(es); {
		var body []byte
		var batches [][]entry
		var ends []int
		for f := 0; f < framesPerReq && lo < len(es); f++ {
			hi := min(lo+usersPerFrame, len(es))
			seq++
			frame, err := enc.Encode("", seq, es[lo:hi])
			if err != nil {
				return nil, fmt.Errorf("encoding frame %d: %w", seq, err)
			}
			if framesPerReq > 1 {
				body = binary.AppendUvarint(body, uint64(len(frame)))
			}
			body = append(body, frame...)
			batches = append(batches, es[lo:hi])
			ends = append(ends, len(frame))
			lo = hi
		}
		rq := newRequest(body, batches)
		// Frames alias the finished body (it no longer moves).
		for i, off := 0, 0; i < len(ends); i++ {
			if framesPerReq > 1 {
				_, k := binary.Uvarint(body[off:])
				off += k
			}
			rq.frames = append(rq.frames, body[off:off+ends[i]])
			off += ends[i]
		}
		reqs = append(reqs, rq)
	}
	return reqs, nil
}

// encodeJSON packs entries into JSON ingest requests of usersPerReq users.
func encodeJSON(es []entry, usersPerReq int) ([]request, error) {
	var reqs []request
	for lo := 0; lo < len(es); lo += usersPerReq {
		hi := min(lo+usersPerReq, len(es))
		in := ingestRequest{Reports: make([]reportRequest, hi-lo)}
		for i, e := range es[lo:hi] {
			in.Reports[i] = reportRequest{User: e.User, Group: e.Group, Values: e.Values}
		}
		body, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, newRequest(body, [][]entry{es[lo:hi]}))
	}
	return reqs, nil
}
