package service

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJobSpec hammers the POST /jobs body decoder: it must never panic,
// every spec it accepts must be internally consistent (defaults applied,
// exactly one input source, safe spool names) — the server spools accepted
// specs straight to disk — and an accepted spec must round-trip: marshalled
// (as the journal records it) and parsed again, it is the same spec.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"genome_dir":"/data/genome"}`))
	f.Add([]byte(`{"inputs":[{"name":"chr1","ref":">chr1\nACGT\n","aln":"r1\tACGT\tIIII\t1\t4\t+\tchr1\t1\n"}],"engine":"gsnp-cpu","window":256}`))
	f.Add([]byte(`{"genome_dir":"/x","engine":"soapsnp","format":"sam","compress":true,"quarantine":true}`))
	f.Add([]byte(`{"inputs":[{"name":"../escape","ref":"r","aln":"a"}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"genome_dir":"/x"}{"genome_dir":"/y"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseJobSpec(data)
		if err != nil {
			return
		}
		if spec.Engine == "" || spec.Format == "" {
			t.Fatalf("accepted spec missing defaults: %+v", spec)
		}
		if (spec.GenomeDir == "") == (len(spec.Inputs) == 0) {
			t.Fatalf("accepted spec without exactly one input source: %+v", spec)
		}
		for _, in := range spec.Inputs {
			for _, c := range []byte("/\\\x00") {
				for i := 0; i < len(in.Name); i++ {
					if in.Name[i] == c {
						t.Fatalf("accepted unsafe input name %q", in.Name)
					}
				}
			}
			if in.Name == "" || in.Name == "." || in.Name == ".." {
				t.Fatalf("accepted unsafe input name %q", in.Name)
			}
			if in.Ref == "" || in.Aln == "" {
				t.Fatalf("accepted input without ref/aln: %+v", in)
			}
		}
		// Accepted specs map onto a valid engine configuration.
		if err := spec.Options.Validate(); err != nil {
			t.Fatalf("accepted spec fails option validation: %v", err)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseJobSpec(raw)
		if err != nil {
			t.Fatalf("re-parsing accepted spec %s: %v", raw, err)
		}
		if len(spec.Inputs) == 0 {
			spec.Inputs = nil // an empty list is omitted, so it comes back nil
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("spec changed in a round trip through %s:\n got %+v\nwant %+v", raw, back, spec)
		}
	})
}
