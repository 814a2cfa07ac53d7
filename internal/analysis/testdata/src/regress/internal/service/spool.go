// Package service reproduces gsnpd's input spooling at the two points
// where gsnplint stopped it. Its import path ends in internal/service, so
// it is gated as an output-producing package exactly like the real one.
package service

import (
	"os"
	"path/filepath"
)

// Input is one uploaded chromosome.
type Input struct{ Name, Ref, Aln, SNP string }

// JobSpec is an uploaded job.
type JobSpec struct {
	Format string
	Inputs []Input
}

// spoolInputsByMap is the spooling loop as first written: it ranged over a
// map of file name to content, so the files were written in map order.
func spoolInputsByMap(dir string, spec *JobSpec) error {
	alnExt := "." + spec.Format
	for _, in := range spec.Inputs {
		files := map[string]string{
			in.Name + ".fa":  in.Ref,
			in.Name + alnExt: in.Aln,
		}
		if in.SNP != "" {
			files[in.Name+".snp"] = in.SNP
		}
		for name, content := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil { // want "WriteFile inside range over map emits output in map iteration order"
				return err
			}
		}
	}
	return nil
}

// spoolInputs is the loop once ordered and before it was made atomic: the
// spool dir outlives a crash, recovery replays the job from these files,
// and a plain WriteFile can leave a torn input behind.
func spoolInputs(dir string, spec *JobSpec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type spoolFile struct{ name, content string }
	for _, in := range spec.Inputs {
		files := []spoolFile{
			{in.Name + ".fa", in.Ref},
			{in.Name + "." + spec.Format, in.Aln},
		}
		if in.SNP != "" {
			files = append(files, spoolFile{in.Name + ".snp", in.SNP})
		}
		for _, f := range files {
			if err := os.WriteFile(filepath.Join(dir, f.name), []byte(f.content), 0o644); err != nil { // want "os.WriteFile writes under a durable path without fsync"
				return err
			}
		}
	}
	return nil
}
