// Command gsnp-experiments reproduces the real cmd/gsnp-experiments before
// closecheck existed: the experiment report went to a file whose Close
// error was discarded by a bare defer.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("out", "", "write the report here instead of stdout")
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close() // want "defer f.Close discards the Close error of a file opened for writing"
		w = f
	}
	_, err := fmt.Fprintln(w, "experiment\tseconds")
	return err
}
