package spec

import (
	"bytes"
	"math/rand"
	"testing"
)

// readmeTenant is the tenant spec README.md shows for msserve.
const readmeTenant = `{
  "version": 1,
  "tenant": "acme",
  "stream": {"slide": "100ms", "overlap": "20ms"},
  "resilience": {"ring_capacity": 200000, "shed_policy": "drop-oldest"},
  "topology": {
    "components": [
      {"name": "nat1", "kind": "nat", "peak_rate": 1e6},
      {"name": "fw1", "kind": "fw", "peak_rate": 8e5, "egress": true}
    ],
    "edges": [{"from": "nat1", "to": "fw1"}]
  },
  "hooks": [{"name": "pager", "type": "webhook", "url": "http://pager.local/hook", "min_score": 500}]
}`

// FuzzParseSpec holds the spec boundary on arbitrary bytes: Parse never
// panics; an accepted document validates; Resolved is idempotent and its
// encoding survives parse → resolve → encode byte for byte; and every
// converter lowers the resolved spec without panicking.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(readmeTenant))
	f.Add([]byte(`{}`))
	for _, doc := range removedFields {
		f.Add([]byte(doc.json))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		b, err := randSpec(rng).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse accepted a spec that does not validate: %v\n%s", err, data)
		}
		r := s.Resolved()
		rb, err := r.Encode()
		if err != nil {
			t.Fatalf("resolved spec does not encode: %v", err)
		}
		if again, err := r.Resolved().Encode(); err != nil || !bytes.Equal(rb, again) {
			t.Fatalf("Resolved is not idempotent (%v):\n%s\n---\n%s", err, rb, again)
		}
		p, err := Parse(rb)
		if err != nil {
			t.Fatalf("resolved spec does not parse: %v\n%s", err, rb)
		}
		pb, err := p.Resolved().Encode()
		if err != nil || !bytes.Equal(rb, pb) {
			t.Fatalf("resolved spec drifted through encode/parse (%v):\n%s\n---\n%s", err, rb, pb)
		}
		r.CoreConfig(nil)
		r.PipelineConfig(nil)
		r.MonitorConfig(nil)
		r.ResilienceConfig()
		r.RetryPolicy()
		r.Meta()
	})
}
