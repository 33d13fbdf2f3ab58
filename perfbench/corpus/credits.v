// A credit counter: grants are only issued while credits remain
// (the design of examples/verilog_frontend.py).
module credits(input clk, input rst, input consume, input refill,
               output [2:0] credits, output grant);
  reg [2:0] credits;
  wire can_grant;
  assign can_grant = (credits != 3'd0);
  assign grant = can_grant & consume;
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      credits <= 3'd4;
    end else begin
      if (grant & ~refill) credits <= credits - 3'd1;
      else begin
        if (refill & ~grant & (credits != 3'd7)) credits <= credits + 3'd1;
      end
    end
  end
endmodule
