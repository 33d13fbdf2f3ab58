// Decade counter with synchronous reset (the design of tests/test_cli.py).
module counter(input clk, input rst, input en, output [3:0] count);
  reg [3:0] count;
  always @(posedge clk) begin
    if (rst)
      count <= 0;
    else if (en) begin
      if (count == 9)
        count <= 0;
      else
        count <= count + 1;
    end
  end
endmodule
