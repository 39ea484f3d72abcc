// Command app is the reach check's fixture program.
package main

import (
	"fmt"

	"reachfixture/lib"
)

func main() {
	var n lib.Node = lib.Leaf{V: 1}
	fmt.Println(lib.Origin(), n, lib.Hooks{})
}
