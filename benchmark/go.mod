module upa/benchmark

go 1.22

require upa v0.0.0

replace upa => ../
