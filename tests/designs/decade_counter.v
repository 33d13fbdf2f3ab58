module counter(clk, rst, en, count);
  input clk, rst, en;
  output [3:0] count;
  reg [3:0] count;
  always @(posedge clk) begin
    if (rst) count <= 4'd0;
    else if (en) begin
      if (count == 4'd9) count <= 4'd0;
      else count <= count + 4'd1;
    end
  end
endmodule
