package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"gsnp/internal/genomejob"
)

// JobSpec is the JSON body of POST /jobs: one genome-calling job, either a
// server-local genome directory (the paper's 24-file production layout) or
// an uploaded set of ref/aln pairs carried inline, and the engine options.
// Exactly one of GenomeDir and Inputs must be set.
type JobSpec struct {
	// GenomeDir names a server-local directory of <chr>.fa/<chr>.soap
	// pairs, decomposed exactly like the CLI's -genome-dir mode.
	GenomeDir string `json:"genome_dir,omitempty"`
	// Inputs carries the job's data inline; the server spools each input
	// to disk for the run and deletes it when the job finishes.
	Inputs []InputSpec `json:"inputs,omitempty"`
	// Options are the engine options under their JSON names; the engine
	// defaults to gsnp-cpu and the format to soap. The CLI-only fields
	// (Stats, Injector, AlignWorkers) have none, so a spec naming one is
	// rejected as an unknown field.
	genomejob.Options
}

// InputSpec is one uploaded chromosome: file contents carried as JSON
// strings (the alignment and reference formats are plain text).
type InputSpec struct {
	// Name is the chromosome name, used as the spooled file stem; it must
	// be a plain name, no path separators.
	Name string `json:"name"`
	// Ref is the reference FASTA text.
	Ref string `json:"ref"`
	// Aln is the alignment text in the job's Format.
	Aln string `json:"aln"`
	// SNP is the optional known-SNP prior text.
	SNP string `json:"snp,omitempty"`
}

// ParseJobSpec decodes and validates a job spec. Unknown fields are
// rejected so a typoed option fails loudly instead of silently selecting a
// default.
func ParseJobSpec(data []byte) (*JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("job spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("job spec: trailing data after JSON object")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// Validate applies defaults and checks the spec's invariants.
func (s *JobSpec) Validate() error {
	if err := s.validateOptions(); err != nil {
		return err
	}
	if (s.GenomeDir == "") == (len(s.Inputs) == 0) {
		return fmt.Errorf("job spec: exactly one of genome_dir and inputs is required")
	}
	seen := make(map[string]bool, len(s.Inputs))
	for i, in := range s.Inputs {
		if in.Name == "" {
			return fmt.Errorf("job spec: inputs[%d]: name is required", i)
		}
		if strings.ContainsAny(in.Name, "/\\") || in.Name == "." || in.Name == ".." ||
			strings.ContainsRune(in.Name, 0) {
			return fmt.Errorf("job spec: inputs[%d]: invalid name %q", i, in.Name)
		}
		if seen[in.Name] {
			return fmt.Errorf("job spec: inputs[%d]: duplicate name %q", i, in.Name)
		}
		seen[in.Name] = true
		if in.Ref == "" {
			return fmt.Errorf("job spec: inputs[%d] (%s): ref is required", i, in.Name)
		}
		if in.Aln == "" {
			return fmt.Errorf("job spec: inputs[%d] (%s): aln is required", i, in.Name)
		}
	}
	return nil
}

// validateOptions applies engine-option defaults and checks them — the
// input-independent half of Validate. Journal recovery uses it directly:
// a recovered uploaded-inputs job carries its data in the journal-owned
// spool directory, not in the spec, so the one-of-genome_dir-and-inputs
// invariant does not apply to it.
func (s *JobSpec) validateOptions() error {
	if s.Engine == "" {
		s.Engine = "gsnp-cpu"
	}
	if s.Format == "" {
		s.Format = "soap"
	}
	return s.Options.Validate()
}
