// Command tool writes the output file its user names: a main package owns
// its outputs, so durability raises nothing here.
package main

import "os"

func main() {
	if err := os.WriteFile("out.txt", []byte("rows\n"), 0o644); err != nil {
		os.Exit(1)
	}
}
