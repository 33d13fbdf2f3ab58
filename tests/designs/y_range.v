module top(input clk, input [3:0] x, input [3:0] y, output bad);
  assign bad = (y < 4'd7) & (y > 4'd0);
endmodule
