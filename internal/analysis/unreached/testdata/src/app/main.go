package main

import (
	"flex"
	"lib"
)

func main() {
	lib.Used()
	lib.Fields()
	lib.Dispatch(lib.NewJob())
	flex.Run()
}
