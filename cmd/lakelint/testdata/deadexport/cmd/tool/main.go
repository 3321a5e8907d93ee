// Command tool is the production caller of the store package.
package main

import (
	"fmt"

	"deadfix/internal/store"
)

func main() {
	s := store.New()
	s.Add("x")
	if !s.Full() && !store.Debug() {
		fmt.Println(s)
	}
}
