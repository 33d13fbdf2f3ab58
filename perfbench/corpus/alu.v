// Four-function 4-bit ALU (the design of tests/test_hdl.py).
module alu(input [3:0] a, input [3:0] b, input [1:0] op, output [3:0] result,
           output zero);
  wire [3:0] result;
  assign result = (op == 2'd0) ? a + b :
                  (op == 2'd1) ? a - b :
                  (op == 2'd2) ? (a & b) : (a | b);
  assign zero = (result == 4'd0);
endmodule
