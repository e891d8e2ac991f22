// Command nested is the fixture's second module: its references count.
package main

import (
	"fmt"

	"unref/internal/a"
)

func main() {
	fmt.Println(a.UsedByNested(), len(a.Shapes()), a.Config{Used: 1})
}
