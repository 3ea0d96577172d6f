package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"
)

// jfloat decodes a distance as the service writes it: a JSON number,
// or the string "inf" for an unreachable pair.
type jfloat float64

func (f *jfloat) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		if s != "inf" {
			return fmt.Errorf("unexpected distance %q", s)
		}
		*f = jfloat(math.Inf(1))
		return nil
	}
	return json.Unmarshal(data, (*float64)(f))
}

func floats(in []jfloat) []float64 {
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = float64(v)
	}
	return out
}

// client is the single closed-loop caller: one keep-alive connection,
// the next request only after the previous reply was read in full.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// request returns the HTTP method and body of an op: a GET, or a POST
// of its encoded JSON.
func (o *op) request() (string, io.Reader) {
	if o.body == nil {
		return http.MethodGet, nil
	}
	return http.MethodPost, bytes.NewReader(o.body)
}

// do sends one op and reads the whole reply into c.buf. The returned
// latency runs from before the send to after the last byte. A
// transport error, a timeout or a non-2xx status is an error.
func (c *client) do(o *op) (time.Duration, error) {
	method, body := o.request()
	req, err := http.NewRequest(method, c.base+o.path, body)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return lat, fmt.Errorf("%s: HTTP %d: %.120s", o.path, resp.StatusCode, c.buf.Bytes())
	}
	return lat, nil
}

// run executes one scripted op. Sampled replies go to the oracle's
// log; an update's acknowledged generation is checked right away,
// because every later sample is judged against it.
func (c *client) run(o *op, orc *oracle, baseGen uint64) (time.Duration, error) {
	lat, err := c.do(o)
	if err != nil {
		return lat, err
	}
	switch o.kind {
	case opUpdate:
		var rep struct {
			Generation uint64 `json:"generation"`
		}
		if err := json.Unmarshal(c.buf.Bytes(), &rep); err != nil {
			return lat, err
		}
		orc.batches = append(orc.batches, o.edges)
		if want := baseGen + uint64(len(orc.batches)); rep.Generation != want {
			return lat, fmt.Errorf("update acknowledged generation %d, want %d", rep.Generation, want)
		}
	case opDist:
		if !orc.pick() {
			return lat, nil
		}
		var rep struct {
			Dist jfloat `json:"dist"`
		}
		if err := json.Unmarshal(c.buf.Bytes(), &rep); err != nil {
			return lat, err
		}
		orc.log(sample{kind: opDist, src: []int{o.u}, dst: []int{o.v}, got: []float64{float64(rep.Dist)}})
	case opSSSP:
		if !orc.pick() {
			return lat, nil
		}
		var rep struct {
			Dist []jfloat `json:"dist"`
		}
		if err := json.Unmarshal(c.buf.Bytes(), &rep); err != nil {
			return lat, err
		}
		orc.log(sample{kind: opSSSP, src: []int{o.u}, got: floats(rep.Dist)})
	case opBatch:
		if !orc.pick() {
			return lat, nil
		}
		var rep struct {
			Dists []jfloat `json:"dists"`
		}
		if err := json.Unmarshal(c.buf.Bytes(), &rep); err != nil {
			return lat, err
		}
		if len(rep.Dists) != len(o.pairs) {
			return lat, fmt.Errorf("batch answered %d of %d pairs", len(rep.Dists), len(o.pairs))
		}
		s := sample{kind: opBatch}
		for k := 0; k < batchChecked && k < len(o.pairs); k++ {
			i := orc.rng.Intn(len(o.pairs))
			s.src = append(s.src, o.pairs[i][0])
			s.dst = append(s.dst, o.pairs[i][1])
			s.got = append(s.got, float64(rep.Dists[i]))
		}
		orc.log(s)
	}
	return lat, nil
}
