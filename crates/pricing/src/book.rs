//! The price book: per-unit list prices for every simulated service.
//!
//! [`PriceBook::aws_2018`] encodes the public AWS list prices in effect
//! when the paper was written (Fall 2018, us-east-1), with one documented
//! exception: the per-request DynamoDB price is *calibrated* so the
//! paper's §3.1 leader-election cost claim ("at minimum $450 per hour" for
//! a 1,000-node cluster) is reproduced exactly; the paper's footnote 6
//! does not give enough detail to derive the figure from list prices
//! alone. EXPERIMENTS.md discusses the discrepancy.

use std::collections::BTreeMap;

/// Per-unit prices, all in US dollars.
#[derive(Clone, Debug, PartialEq)]
pub struct PriceBook {
    /// Per Lambda invocation ($0.20 per million requests).
    pub lambda_per_request: f64,
    /// Per GB-second of Lambda execution, billed in 100 ms increments.
    pub lambda_per_gb_second: f64,
    /// Per GB-second of *provisioned concurrency* (keeping containers
    /// warm): the §4-style SLO knob AWS shipped in late 2019; priced at
    /// its launch rate.
    pub lambda_provisioned_per_gb_second: f64,
    /// Per S3 PUT/COPY/POST/LIST request ($0.005 per thousand).
    pub blob_put_per_request: f64,
    /// Per S3 GET request ($0.0004 per thousand).
    pub blob_get_per_request: f64,
    /// Per GB-month of S3 standard storage.
    pub blob_storage_per_gb_month: f64,
    /// Per DynamoDB read request. **Calibrated** (see module docs).
    pub kv_read_per_request: f64,
    /// Per DynamoDB write request. **Calibrated** (see module docs).
    pub kv_write_per_request: f64,
    /// Per SQS request ($0.40 per million); a batch send/receive/delete of
    /// up to 10 messages is one request.
    pub queue_per_request: f64,
    /// Hourly on-demand price per EC2 instance type.
    pub ec2_hourly: BTreeMap<String, f64>,
    /// Per GB-month of EBS gp2 storage.
    pub ebs_per_gb_month: f64,
    /// Per TB scanned by the autoscaling query service (Athena: $5/TB).
    pub query_per_tb_scanned: f64,
    /// Per request traversing the front-door gateway (API Gateway:
    /// $3.50 per million). Charged on *offered* requests — shed traffic
    /// still bills, which is exactly the overload economics the gateway
    /// experiments measure.
    pub gateway_per_request: f64,
}

impl PriceBook {
    /// Fall 2018 AWS us-east-1 list prices (see module docs for the one
    /// calibrated entry).
    pub fn aws_2018() -> PriceBook {
        let mut ec2_hourly = BTreeMap::new();
        // On-demand, Linux, us-east-1, late 2018.
        ec2_hourly.insert("m4.large".to_owned(), 0.10);
        ec2_hourly.insert("m5.large".to_owned(), 0.096);
        ec2_hourly.insert("m5.xlarge".to_owned(), 0.192);
        ec2_hourly.insert("m5.2xlarge".to_owned(), 0.384);
        ec2_hourly.insert("c5.large".to_owned(), 0.085);
        ec2_hourly.insert("r5.large".to_owned(), 0.126);
        PriceBook {
            lambda_per_request: 0.20 / 1e6,
            lambda_per_gb_second: 0.000_016_666_7,
            lambda_provisioned_per_gb_second: 0.000_004_167,
            blob_put_per_request: 0.005 / 1e3,
            blob_get_per_request: 0.0004 / 1e3,
            blob_storage_per_gb_month: 0.023,
            // Calibrated: paper footnote 6 implies ~$0.45/node-hour at
            // 4 polls/s with ~2 steady-state reads per poll plus election
            // bursts; $16.50 per million requests lands the measured
            // best-case 1,000-node cluster (~7.6 req/node/s) at the
            // paper's $450/hr. (2018 on-demand list price was $0.25/M
            // reads, $1.25/M writes — the paper's figure also folds in
            // the provisioned-capacity floor needed to absorb 4 Hz
            // polling bursts from 1,000 nodes.)
            kv_read_per_request: 16.50 / 1e6,
            kv_write_per_request: 16.50 / 1e6,
            queue_per_request: 0.40 / 1e6,
            ec2_hourly,
            ebs_per_gb_month: 0.10,
            query_per_tb_scanned: 5.0,
            gateway_per_request: 3.50 / 1e6,
        }
    }

    /// Hourly price of an instance type.
    ///
    /// # Panics
    /// Panics on unknown instance types: experiments must only provision
    /// types the book knows, otherwise their cost output silently lies.
    pub fn ec2_hourly(&self, instance_type: &str) -> f64 {
        *self
            .ec2_hourly
            .get(instance_type)
            .unwrap_or_else(|| panic!("no price for instance type {instance_type:?}"))
    }
}

impl Default for PriceBook {
    fn default() -> Self {
        PriceBook::aws_2018()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aws_2018_headline_prices() {
        let book = PriceBook::aws_2018();
        // Lambda: $0.20 per million requests.
        assert!((book.lambda_per_request * 1e6 - 0.20).abs() < 1e-12);
        // The paper's training case: 31 runs x 900 s x 0.625 GB ≈ $0.29.
        let gb_s = 31.0 * 900.0 * (640.0 / 1024.0);
        let cost = gb_s * book.lambda_per_gb_second;
        assert!((cost - 0.29).abs() < 0.01, "training cost {cost}");
        // EC2 m4.large: 1300 s ≈ $0.036.
        let ec2 = book.ec2_hourly("m4.large") * 1300.0 / 3600.0;
        assert!((ec2 - 0.04).abs() < 0.005, "ec2 cost {ec2}");
    }

    #[test]
    fn sqs_million_per_second_rate() {
        // CS-2: 1M msg/s at 1.1 SQS requests per message ≈ $1,584/hr.
        let book = PriceBook::aws_2018();
        let requests_per_hour = 1e6 * 3600.0 * 1.1;
        let cost = requests_per_hour * book.queue_per_request;
        assert!((cost - 1584.0).abs() < 1.0, "sqs hourly {cost}");
    }

    #[test]
    fn ec2_fleet_hourly() {
        // CS-2: 290 m5.large ≈ $27.84/hr.
        let book = PriceBook::aws_2018();
        let cost = 290.0 * book.ec2_hourly("m5.large");
        assert!((cost - 27.84).abs() < 0.01, "fleet hourly {cost}");
    }

    #[test]
    #[should_panic(expected = "no price for instance type")]
    fn unknown_instance_type_panics() {
        PriceBook::aws_2018().ec2_hourly("x1e.32xlarge");
    }
}
