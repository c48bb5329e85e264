package main

import (
	"flex"
	"lib"
)

func main() {
	lib.Used()
	lib.Dispatch(lib.NewJob())
	flex.Run()
}
