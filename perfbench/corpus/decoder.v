// Registered 2-to-4 one-hot decoder (the case-statement design of tests/test_hdl.py).
module decoder(input clk, input [1:0] sel, output [3:0] onehot);
  reg [3:0] onehot;
  always @(posedge clk) begin
    case (sel)
      2'd0: onehot <= 4'b0001;
      2'd1: onehot <= 4'b0010;
      2'd2: onehot <= 4'b0100;
      default: onehot <= 4'b1000;
    endcase
  end
endmodule
